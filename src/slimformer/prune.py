"""Magnitude pruning: binary masks that keep the largest weights."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import RangeError, ShapeError
from .tensor import DenseMatrix


@dataclass(frozen=True)
class PruneMask:
    """Binary {0,1} mask with the same shape as its target matrix."""

    bits: DenseMatrix

    def __post_init__(self):
        arr = self.bits.array
        if not np.all((arr == 0.0) | (arr == 1.0)):
            raise RangeError("mask entries must be exactly 0 or 1")

    @property
    def rows(self):
        return self.bits.rows

    @property
    def cols(self):
        return self.bits.cols

    @property
    def ones_count(self):
        return int(np.sum(self.bits.array))


def ones_for_fraction(p_weight, n_total):
    """Ones-count round(p_weight * n_total), rounding halves up."""
    if not 0.0 < p_weight <= 1.0:
        raise RangeError(f"p_weight must be in (0, 1], got {p_weight}")
    return int(math.floor(p_weight * n_total + 0.5))


def topk_mask(w, k):
    """Mask keeping exactly the k largest |w| entries.

    Ties are broken by row-major index order: the earlier entry is kept.
    """
    cells = w.rows * w.cols
    if not 0 <= k <= cells:
        raise RangeError(f"k must be in [0, {cells}], got {k}")
    flat = np.abs(w.array).ravel()
    # stable sort on -|w| keeps row-major order among equal magnitudes
    order = np.argsort(-flat, kind="stable")
    bits = np.zeros(flat.size)
    bits[order[:k]] = 1.0
    return PruneMask(DenseMatrix(bits.reshape(w.rows, w.cols)))


def magnitude_mask(w, p_weight):
    """Mask keeping the k = round(p_weight * m * n) largest |w| entries."""
    return topk_mask(w, ones_for_fraction(p_weight, w.rows * w.cols))


def apply_mask(w, mask):
    """Elementwise product; exact zeros where the mask is zero."""
    if (w.rows, w.cols) != (mask.rows, mask.cols):
        raise ShapeError(
            f"mask shape {mask.rows}x{mask.cols} does not match "
            f"matrix {w.rows}x{w.cols}"
        )
    return DenseMatrix(w.array * mask.bits.array)
