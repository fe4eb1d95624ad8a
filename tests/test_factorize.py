import numpy as np
import pytest

from slimformer.errors import ExpansionWarning, RangeError
from slimformer.factorize import factor_ratio, factorize_layer, rank_for_ratio
from slimformer.prune import keep_largest, ones_for_fraction
from slimformer.svd import svd


def product(pair):
    return pair.a @ pair.b.T


def compress_at(w, p_svd, p_weight):
    """factorize_layer at the rank p_svd gives, then keep_largest on each
    half at p_weight: ((a, mask_a), (b, mask_b))."""
    pair = factorize_layer(w, rank_for_ratio(*w.shape, p_svd))
    return tuple(keep_largest(h, ones_for_fraction(p_weight, h.size))
                 for h in (pair.a, pair.b))


def kept(halves):
    return sum(arr.size if mask is None else int(mask.sum())
               for arr, mask in halves)


def test_rank_for_ratio_worked_values():
    assert rank_for_ratio(768, 768, 0.5) == 192
    assert rank_for_ratio(30522, 768, 0.7) == 524
    assert rank_for_ratio(4, 4, 0.1) == 1


def test_rank_for_ratio_range_errors():
    with pytest.raises(RangeError):
        rank_for_ratio(768, 768, 0.0)
    with pytest.raises(RangeError):
        rank_for_ratio(768, 768, 1.5)
    with pytest.raises(RangeError):
        rank_for_ratio(0, 4, 0.5)


def test_rank_never_exceeds_min_dim():
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = int(rng.integers(1, 200))
        n = int(rng.integers(1, 200))
        p = float(rng.uniform(1e-6, 1.0))
        r = rank_for_ratio(m, n, p)
        assert 1 <= r <= min(m, n)


def test_factor_ratio_worked_values():
    assert factor_ratio(4, 4, 2) == 1.0
    assert factor_ratio(768, 768, 192) == 0.5
    assert abs(factor_ratio(10, 2, 2) - 1.2) < 1e-15


def test_factor_ratio_range_errors():
    with pytest.raises(RangeError):
        factor_ratio(4, 4, 0)
    with pytest.raises(RangeError):
        factor_ratio(4, 4, 5)


def test_floor_slack_bound():
    rng = np.random.default_rng(1)
    for _ in range(200):
        m = int(rng.integers(1, 100))
        n = int(rng.integers(1, 100))
        p = float(rng.uniform(1e-3, 1.0))
        r = rank_for_ratio(m, n, p)
        assert factor_ratio(m, n, r) <= p + (m + n) / (m * n) + 1e-12


def test_forced_rank_one_keeps_top_triple():
    pair = factorize_layer(np.diag([3.0, 2.0, 1.0]), rank=1)
    assert pair.r == 1
    recon = product(pair)
    assert np.allclose(recon, np.diag([3.0, 0.0, 0.0]), atol=1e-8)


def test_full_rank_reconstruction():
    rng = np.random.default_rng(2)
    w = rng.normal(size=(6, 1))  # floor gives full rank here
    assert rank_for_ratio(6, 1, 1.0) == 1
    with pytest.warns(ExpansionWarning):  # 7 stored vs 6 dense
        pair = factorize_layer(w, 1)
    assert pair.r == 1
    assert np.allclose(product(pair), w, atol=1e-8)
    w2 = rng.normal(size=(5, 4))
    with pytest.warns(ExpansionWarning):
        pair2 = factorize_layer(w2, rank=4)
    assert np.allclose(product(pair2), w2, atol=1e-8)


def test_rank_one_input_recovered_at_any_fraction():
    rng = np.random.default_rng(3)
    u = rng.normal(size=(7, 1))
    v = rng.normal(size=(4, 1))
    w = u @ v.T
    for p in (0.05, 0.3, 1.0):
        pair = factorize_layer(w, rank_for_ratio(7, 4, p))
        err = np.linalg.norm(product(pair) - w)
        assert err < 1e-8 * np.linalg.norm(w)


def test_balanced_split():
    # a.T @ a and b.T @ b must both equal diag of the retained spectrum
    rng = np.random.default_rng(4)
    w = rng.normal(size=(9, 6))
    pair = factorize_layer(w, rank_for_ratio(9, 6, 0.5))
    s = svd(w).singular_values[: pair.r]
    assert np.allclose(pair.a.T @ pair.a, np.diag(s), atol=1e-9)
    assert np.allclose(pair.b.T @ pair.b, np.diag(s), atol=1e-9)


def test_reconstruction_matches_truncation_error():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = int(rng.integers(2, 16))
        n = int(rng.integers(2, 16))
        w = rng.normal(size=(m, n))
        p = float(rng.uniform(0.1, 1.0))
        pair = factorize_layer(w, rank_for_ratio(m, n, p))
        err = np.linalg.norm(product(pair) - w)
        discarded = svd(w).singular_values[pair.r:]
        assert err <= np.sqrt(np.sum(discarded ** 2)) + 1e-8


def test_zero_pair_reconstructs_zero():
    pair = factorize_layer(np.zeros((5, 4)), 2)
    assert pair.a.shape == (5, 2) and pair.b.shape == (4, 2)
    assert np.array_equal(product(pair), np.zeros((5, 4)))


def test_expansion_is_warned_not_silent():
    rng = np.random.default_rng(6)
    w = rng.normal(size=(10, 2))
    with pytest.warns(ExpansionWarning):
        pair = factorize_layer(w, rank=2)
    assert pair.r == 2  # still returned, caller decides


def test_noop_composition_recovers_input():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(5, 4))
    with pytest.warns(ExpansionWarning):  # full rank stores more than dense
        pair = factorize_layer(w, 4)
    (a, mask_a), (b, mask_b) = (keep_largest(h, h.size)
                                for h in (pair.a, pair.b))
    assert mask_a is None and mask_b is None
    assert a is pair.a and b is pair.b
    assert np.allclose(a @ b.T, w, atol=1e-8)


def test_factorization_only_path():
    pair = factorize_layer(np.diag([3.0, 2.0, 1.0]), 1)
    (a, mask_a), (b, mask_b) = (keep_largest(h, 3) for h in (pair.a, pair.b))
    assert mask_a is None and mask_b is None
    assert np.allclose(a @ b.T, np.diag([3.0, 0.0, 0.0]), atol=1e-8)


def test_accounting_identity():
    """Kept entries over m*n land within rounding of
    factor_ratio * p_weight: each half's count rounds by half an entry."""
    rng = np.random.default_rng(3)
    for _ in range(30):
        m = int(rng.integers(2, 20))
        n = int(rng.integers(2, 20))
        p_svd = float(rng.uniform(0.2, 1.0))
        p_weight = float(rng.uniform(0.1, 1.0))
        w = rng.normal(size=(m, n))
        halves = compress_at(w, p_svd, p_weight)
        r = halves[0][0].shape[1]
        got = kept(halves) / (m * n)
        want = factor_ratio(m, n, r) * p_weight
        assert abs(got - want) <= 2 * max(m, n) / (m * n) + 1e-12


def test_error_non_increasing_in_p_weight():
    rng = np.random.default_rng(4)
    for _ in range(5):
        w = rng.normal(size=(10, 8))
        errs = []
        for p_weight in (0.2, 0.4, 0.6, 0.8, 1.0):
            (a, _), (b, _) = compress_at(w, 0.5, p_weight)
            errs.append(np.linalg.norm(a @ b.T - w))
        for lo, hi in zip(errs[1:], errs[:-1]):
            assert lo <= hi + 1e-9
