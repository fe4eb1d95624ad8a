"""Magnitude pruning: binary masks that keep the largest weights.

A mask is a float64 array of zeros and ones with its target's shape.
"""

import math

import numpy as np

from .errors import RangeError, ShapeError


def ones_for_fraction(p_weight, n_total):
    """Ones-count round(p_weight * n_total), rounding halves up."""
    if not 0.0 < p_weight <= 1.0:
        raise RangeError(f"p_weight must be in (0, 1], got {p_weight}")
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
    bits = np.zeros(flat.size)
    bits[order[:k]] = 1.0
    return bits.reshape(w.shape)


def magnitude_mask(w, p_weight):
    """Mask keeping the k = round(p_weight * m * n) largest |w| entries."""
    return topk_mask(w, ones_for_fraction(p_weight, w.size))


def apply_mask(w, mask):
    """Elementwise product; exact zeros where the mask is zero."""
    if w.shape != mask.shape:
        raise ShapeError(
            f"mask shape {mask.shape} does not match matrix {w.shape}")
    if not np.all((mask == 0.0) | (mask == 1.0)):
        raise RangeError("mask entries must be exactly 0 or 1")
    return w * mask
