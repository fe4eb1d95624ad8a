"""Magnitude pruning: binary masks that keep the largest weights.

A mask is a bool array with its target's shape, True where the weight
is kept.  Multiplying by it gives the same bits as multiplying by a 1.0
/ 0.0 float array, at an eighth of the bytes; bundle files still store
masks as float64 ones and zeros, converted at the file boundary.
"""

import math

import numpy as np

from .errors import RangeError, check_fraction


def ones_for_fraction(p_weight, n_total):
    """Ones-count round(p_weight * n_total), rounding halves up."""
    check_fraction("p_weight", p_weight)
    return int(math.floor(p_weight * n_total + 0.5))


def topk_mask(w, k):
    """Mask keeping exactly the k largest |w| entries.

    Ties are broken by row-major index order: the earlier entry is kept.
    """
    if not 0 <= k <= w.size:
        raise RangeError(f"k must be in [0, {w.size}], got {k}")
    flat = np.abs(w).ravel()
    # stable sort on -|w| keeps row-major order among equal magnitudes
    order = np.argsort(-flat, kind="stable")
    bits = np.zeros(flat.size, dtype=bool)
    bits[order[:k]] = True
    return bits.reshape(w.shape)


def keep_largest(w, ones):
    """(w * mask, mask) for the topk_mask of the `ones` largest |w|
    entries, a new array, or (w, None) when ones is w.size: w itself,
    no copy, so a caller that must not alias w makes the copy.  w is
    only read."""
    if ones == w.size:
        return w, None
    mask = topk_mask(w, ones)
    return w * mask, mask
