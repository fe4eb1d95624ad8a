"""Bias-distribution study."""

import csv
import io

import numpy as np
import pytest

from slimformer.analysis import (
    bias_histogram,
    bias_matrix,
    bias_study,
    compressed_matrix,
    gaussian_testbed,
    histogram_csv,
)
from slimformer.errors import InputError, RangeError, ShapeError


class TestBiasMatrix:
    def test_identical_is_zero(self):
        w = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(bias_matrix(w, w), np.zeros((2, 3)))

    def test_worked_prune_example(self):
        w = np.array([[0.1, -0.4], [0.2, -0.3]])
        pruned = compressed_matrix(w, "prune", 0.5)
        bias = bias_matrix(w, pruned)
        expected = np.array([[-0.1, 0.0], [-0.2, 0.0]])
        assert np.allclose(bias, expected, atol=1e-15)

    def test_rank_one_recovery(self):
        rng = np.random.default_rng(3)
        w = np.outer(rng.normal(size=8), rng.normal(size=6))
        from slimformer.factorize import factorize_layer
        pair = factorize_layer(w, rank=1)
        bias = bias_matrix(w, pair.a @ pair.b.T)
        assert np.max(np.abs(bias)) < 1e-8

    def test_shape_mismatch(self):
        a = np.zeros((2, 3))
        b = np.zeros((3, 2))
        with pytest.raises(ShapeError):
            bias_matrix(a, b)


class TestBiasHistogram:
    def test_counts_conserved_and_bins_cover(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            rows = int(rng.integers(2, 20))
            cols = int(rng.integers(2, 20))
            bias = rng.normal(size=(rows, cols))
            hist = bias_histogram(bias, "prune")
            assert int(hist.counts.sum()) == rows * cols
            assert hist.edges[0] <= bias.min()
            assert hist.edges[-1] >= bias.max()

    def test_symmetric_about_zero(self):
        bias = np.array([[0.5, -2.0], [0.1, 0.3]])
        hist = bias_histogram(bias, "svd")
        assert hist.edges[0] == -hist.edges[-1] == -2.0

    def test_default_bin_count(self):
        hist = bias_histogram(np.ones((3, 3)), "prune")
        assert len(hist.counts) == 101
        assert len(hist.edges) == 102

    def test_zero_bias_is_spike(self):
        hist = bias_histogram(np.zeros((4, 5)), "hybrid")
        assert hist.mean == 0.0 and hist.std == 0.0
        assert int(hist.counts.sum()) == 20
        assert np.count_nonzero(hist.counts) == 1
        # the 101-bin grid puts zero in the middle bin
        assert hist.counts[50] == 20

    def test_moments(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=(6, 7))
        hist = bias_histogram(values, "svd")
        assert hist.mean == pytest.approx(values.mean(), abs=1e-12)
        assert hist.std == pytest.approx(values.std(), abs=1e-12)

    def test_bin_validation(self):
        with pytest.raises(RangeError):
            bias_histogram(np.ones((2, 2)), "prune", bins=0)


class TestBiasStudy:
    def test_full_retain_spikes_at_zero(self):
        w = np.random.default_rng(0).normal(size=(12, 10))
        for hist in bias_study(w, 1.0):
            assert hist.std == 0.0
            assert np.count_nonzero(hist.counts) == 1
            assert int(hist.counts.sum()) == 120

    def test_reference_configuration(self):
        w = gaussian_testbed(1, seed=5)[0]
        prune, svd, hybrid = bias_study(w, 0.2, split=(0.4, 0.5))
        assert (prune.mode, svd.mode, hybrid.mode) == ("prune", "svd",
                                                       "hybrid")
        for hist in (prune, svd, hybrid):
            assert int(hist.counts.sum()) == 64 * 64

    def test_default_split_matches_reference(self):
        w = gaussian_testbed(1, rows=32, cols=24, seed=6)[0]
        explicit = bias_study(w, 0.2, split=(0.4, 0.5))
        default = bias_study(w, 0.2)
        for a, b in zip(explicit, default):
            assert np.array_equal(a.counts, b.counts)
            assert a.std == b.std

    def test_prune_zero_mass(self):
        w = gaussian_testbed(1, rows=16, cols=12, seed=7)[0]
        prune = bias_study(w, 0.3)[0]
        survivors = int(round(0.3 * 192))
        compressed = compressed_matrix(w, "prune", 0.3)
        zeros = int(np.sum(bias_matrix(w, compressed) == 0.0))
        assert zeros >= survivors
        assert int(prune.counts[50]) >= survivors

    def test_infeasible_split(self):
        w = np.ones((8, 8))
        with pytest.raises(RangeError):
            bias_study(w, 0.2, split=(0.4, 0.4))
        with pytest.raises(RangeError):
            bias_study(w, 0.2, split=(1.2, 1.0 / 6.0))
        with pytest.raises(RangeError):
            bias_study(w, 0.6)  # default split would need svd fraction 1.2

    def test_unknown_mode(self):
        with pytest.raises(InputError):
            compressed_matrix(np.ones((4, 4)), "fold", 0.5)

    def test_hybrid_beats_pure_svd_spread(self):
        # the statistical claim: at a matched 20% budget the hybrid's
        # bias deviation beats pure factorization in >= 90% of trials
        wins = 0
        for w in gaussian_testbed(20, seed=0):
            _, svd, hybrid = bias_study(w, 0.2, split=(0.4, 0.5))
            wins += int(hybrid.std < svd.std)
        assert wins >= 18


class TestHistogramCsv:
    def test_layout_and_conservation(self):
        w = gaussian_testbed(1, rows=9, cols=8, seed=8)[0]
        hist = bias_study(w, 0.5)[0]
        rows = list(csv.reader(io.StringIO(histogram_csv(hist))))
        assert rows[0] == ["bin_left", "bin_right", "count"]
        assert len(rows) == 1 + 101 + 1
        assert sum(int(r[2]) for r in rows[1:-1]) == 72
        assert rows[-1][0] == "stats"
        assert float(rows[-1][2]) == pytest.approx(hist.std)

    def test_edges_are_contiguous(self):
        hist = bias_histogram(np.ones((3, 4)), "svd", bins=5)
        rows = list(csv.reader(io.StringIO(histogram_csv(hist))))[1:-1]
        for first, second in zip(rows, rows[1:]):
            assert float(first[1]) == float(second[0])


class TestTestbed:
    def test_deterministic(self):
        a = gaussian_testbed(3, rows=5, cols=6, seed=9)
        b = gaussian_testbed(3, rows=5, cols=6, seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_shapes_and_count(self):
        mats = gaussian_testbed(4, rows=7, cols=5, seed=1)
        assert len(mats) == 4
        assert all(m.shape == (7, 5) for m in mats)
