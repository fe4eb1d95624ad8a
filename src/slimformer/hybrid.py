"""Hybrid compression of one matrix: factorize, then prune both factors.

The compressed matrix is stored as (mask_a * A) and (mask_b * B); its
effective dense weight is their product and the retained parameter
count is the total ones across both masks.
"""

from .errors import RangeError
from .factorize import factor_ratio, factorize_layer
from .prune import topk_mask


def compress_matrix(w, rank, ones_a, ones_b, b=None):
    """Factorize the 2-D array w (m x n) at rank, then keep the ones_a
    largest |entries| of A (m x rank) and the ones_b largest of B
    (n x rank).  With b given, the matrix is the product w @ b.T of a
    factor pair, which is re-factorized without being multiplied out.

    Returns ((a, mask_a), (b, mask_b)): each factor with its pruned
    entries zeroed, and its binary mask, or None for a half that keeps
    every entry.  w and b are only read; the returned arrays are new.
    """
    pair = factorize_layer(w, rank=rank, b=b)
    halves = []
    for arr, ones in ((pair.a, ones_a), (pair.b, ones_b)):
        if ones == arr.size:
            halves.append((arr, None))
        else:
            mask = topk_mask(arr, ones)
            halves.append((arr * mask, mask))
    return tuple(halves)


def hybrid_ratio(m, n, r, p_weight):
    """Retained fraction after both stages: factor_ratio * p_weight."""
    if not 0.0 < p_weight <= 1.0:
        raise RangeError(f"p_weight must be in (0, 1], got {p_weight}")
    return factor_ratio(m, n, r) * p_weight
