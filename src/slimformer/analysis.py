"""One-shot compression bias distributions.

The bias of a compression scheme is the elementwise difference between
the compressed realization of a weight matrix and the original.  The
study here compares the bias spread of pure pruning, pure low-rank
factorization, and the hybrid of the two at a matched parameter budget,
on seeded Gaussian matrices standing in for pretrained weights.
"""

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import InputError, RangeError, ShapeError
from .factorize import factorize_layer, rank_for_ratio
from .prune import keep_largest, ones_for_fraction

MODES = ("prune", "svd", "hybrid")


@dataclass(frozen=True)
class BiasHistogram:
    """Uniform-bin histogram of one arm's bias values.

    Bins are symmetric about zero and cover every observed value, so
    counts always sum to the element count of the analyzed matrix.
    """
    edges: np.ndarray
    counts: np.ndarray
    mean: float
    std: float
    mode: str


def bias_matrix(original, compressed):
    """Elementwise compression error, compressed minus original."""
    if original.shape != compressed.shape:
        raise ShapeError(
            f"compressed shape {compressed.shape} does not match "
            f"original {original.shape}"
        )
    return compressed - original


def compressed_matrix(w, mode, retain, split=None):
    """One-shot dense realization of w under the named scheme.

    Each mode is a split (svd fraction, prune fraction), prune being
    (1, retain) and svd (retain, 1).  A retained fraction of 1 skips
    the stage entirely, so every mode returns the matrix unchanged.
    The hybrid split defaults to pruning half the factor entries,
    mirroring the reference configuration (retain 0.2 from
    factorization to 0.4 then pruning to 0.5 of that).
    """
    if not 0.0 < retain <= 1.0:
        raise RangeError(f"retain must be in (0, 1], got {retain}")
    if mode == "prune":
        split = (1.0, retain)
    elif mode == "svd":
        split = (retain, 1.0)
    elif mode != "hybrid":
        raise InputError(f"unknown mode {mode!r}, expected one of {MODES}")
    elif split is None:
        split = (1.0, 1.0) if retain == 1.0 else (2.0 * retain, 0.5)
    svd_f, prune_f = split
    if not (0.0 < svd_f <= 1.0 and 0.0 < prune_f <= 1.0):
        raise RangeError(f"infeasible split {split} for retain {retain}")
    if abs(svd_f * prune_f - retain) > 1e-9:
        raise RangeError(
            f"split {split} multiplies to {svd_f * prune_f}, "
            f"not retain {retain}"
        )

    def prune(arr):
        return keep_largest(arr, ones_for_fraction(prune_f, arr.size))[0]

    if svd_f == 1.0:
        return prune(w)
    pair = factorize_layer(w, rank_for_ratio(*w.shape, svd_f))
    return prune(pair.a) @ prune(pair.b).T


def bias_histogram(bias, mode, bins=101):
    """Histogram the bias entries into uniform bins symmetric about 0."""
    if bins < 1:
        raise RangeError(f"bins must be >= 1, got {bins}")
    flat = np.ravel(bias)
    limit = float(np.max(np.abs(flat)))
    if limit == 0.0:
        limit = 1.0
    edges = np.linspace(-limit, limit, bins + 1)
    counts, _ = np.histogram(flat, edges)
    return BiasHistogram(
        edges=edges,
        counts=counts,
        mean=float(flat.mean()),
        std=float(flat.std()),
        mode=mode,
    )


def bias_study(w, retain, split=None):
    """Bias histograms of the three schemes at one retained fraction.

    Returns (prune, svd, hybrid) histograms of bias_histogram's default
    bins, all computed one-shot with no fine-tuning.  The pure arms
    compress straight to retain; the hybrid arm uses the split (svd
    fraction, prune fraction), whose product must equal retain.
    """
    out = []
    for mode in MODES:
        compressed = compressed_matrix(w, mode, retain, split=split)
        out.append(bias_histogram(bias_matrix(w, compressed), mode))
    return tuple(out)


def gaussian_testbed(count=20, rows=64, cols=64, seed=0):
    """Seeded standard-normal matrices standing in for pretrained weights."""
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((rows, cols)) for _ in range(count)]


def histogram_csv(hist):
    """Bin rows plus a trailing stats row holding mean and deviation."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("bin_left", "bin_right", "count"))
    for left, right, count in zip(hist.edges[:-1], hist.edges[1:],
                                  hist.counts):
        writer.writerow((repr(float(left)), repr(float(right)), int(count)))
    writer.writerow(("stats", repr(hist.mean), repr(hist.std)))
    return out.getvalue()
