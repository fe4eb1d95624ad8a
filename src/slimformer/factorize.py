"""Low-rank factor pairs built from truncated SVD.

A weight matrix W (m x n) is replaced by A @ B.T with A = U_r sqrt(S_r)
and B = V_r sqrt(S_r), so the product equals the rank-r truncation of W.
The rank is chosen from a target retained fraction: storing the pair
costs (m+n)*r parameters against m*n for the dense matrix.  A matrix
already held as a pair is re-factorized through the pair's small core
(svd_product), never multiplied out.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ExpansionWarning, RangeError, check_fraction
from .svd import svd, svd_product


@dataclass(frozen=True)
class LowRankPair:
    """Balanced factor pair (a: m x r, b: n x r) with a @ b.T ~ W."""

    a: np.ndarray
    b: np.ndarray
    r: int


def rank_for_ratio(m, n, p_svd):
    """Rank whose factor pair retains at most fraction p_svd of m*n.

    r = max(1, floor(m*n/(m+n) * p_svd)); the floor keeps the pair at or
    under budget, the clamp guarantees a usable rank.
    """
    if m < 1 or n < 1:
        raise RangeError(f"matrix dims must be >= 1, got {m}x{n}")
    check_fraction("p_svd", p_svd)
    return max(1, math.floor(m * n / (m + n) * p_svd))


def factor_ratio(m, n, r):
    """Retained fraction (m+n)*r / (m*n) of a rank-r factor pair."""
    if m < 1 or n < 1:
        raise RangeError(f"matrix dims must be >= 1, got {m}x{n}")
    if not 1 <= r <= min(m, n):
        raise RangeError(f"rank {r} out of [1, {min(m, n)}] for {m}x{n}")
    return (m + n) * r / (m * n)


def factorize_layer(w, rank, b=None):
    """Factor w into the LowRankPair of its top rank singular triples.

    With b given, the matrix is the product w @ b.T of a pair (w: m x k,
    b: n x k), decomposed by svd_product; a rank above k raises
    RangeError, since a pair cannot gain rank.  A pair that would store
    more parameters than the dense matrix raises ExpansionWarning but
    is still returned; budget code must not accept such a layer
    silently.
    """
    m, n = w.shape if b is None else (w.shape[0], b.shape[0])
    ratio = factor_ratio(m, n, rank)
    if ratio > 1.0:
        warnings.warn(
            f"rank {rank} pair for {m}x{n} stores {ratio:.4f} "
            "of the dense parameter count",
            ExpansionWarning,
            stacklevel=2,
        )
    if b is None:
        res = svd(w)
    elif rank > w.shape[1]:
        raise RangeError(f"rank {rank} is above the rank {w.shape[1]} of "
                         f"the factor pair it would replace")
    else:
        res = svd_product(w, b)
    root = np.sqrt(res.singular_values[:rank])
    return LowRankPair(a=res.u[:, :rank] * root, b=res.v[:, :rank] * root,
                       r=rank)
