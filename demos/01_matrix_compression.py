"""Single-matrix compression: factorization, pruning, and the hybrid.

Walks one weight matrix through the three compression schemes and
prints the storage and error numbers behind each.
"""

import numpy as np

from slimformer import (factor_ratio, factorize_layer, keep_largest,
                        ones_for_fraction, rank_for_ratio, svd)

rng = np.random.default_rng(0)
w = rng.normal(size=(64, 48))

# Full decomposition first. The reconstruction should be exact to
# rounding, and the singular values come back sorted.
res = svd(w)
s = res.singular_values
recon_err = np.max(np.abs((res.u * s) @ res.v.T - w))
print(f"matrix 64x48, full svd reconstruction error {recon_err:.2e}")
print(f"singular values head {np.round(s[:4], 3)}")

# Rank from a storage budget. A rank-r pair stores r*(m+n) numbers, so
# half the storage of a 768x768 matrix means rank 192.
print(f"\nrank for 768x768 at half storage: "
      f"{rank_for_ratio(768, 768, 0.5)}")
print(f"storage fraction of that pair: {factor_ratio(768, 768, 192)}")

r = rank_for_ratio(64, 48, 0.3)
pair = factorize_layer(w, r)
direct = np.linalg.norm(w - pair.a @ pair.b.T)
print(f"\nrank {r} keeps {factor_ratio(64, 48, r):.4f} of storage")
# Eckart-Young: the error is the norm of the discarded spectrum.
print(f"truncation error (from discarded spectrum) "
      f"{np.sqrt(np.sum(s[r:] ** 2)):.6f}")
print(f"truncation error (direct)                  {direct:.6f}")

# Eckart-Young in action: no random pair of the same rank does better.
challengers = []
for _ in range(200):
    a = rng.normal(size=(64, r))
    b = rng.normal(size=(48, r))
    challengers.append(np.linalg.norm(w - a @ b.T))
print(f"best of 200 random rank-{r} pairs {min(challengers):.4f}, "
      f"svd {direct:.4f}")

# Magnitude pruning keeps the largest entries; survivors are exact.
pruned, mask = keep_largest(w, ones_for_fraction(0.3, w.size))
kept = int(mask.sum())
print(f"\npruning at 0.3 keeps {kept} of {64 * 48} entries")
print(f"pruned matrix error {np.linalg.norm(w - pruned):.4f}")

# The hybrid prunes the factors themselves. Storage multiplies:
# p_svd * p_weight, the worked value from the ratio table.
print(f"\nhybrid ratio at rank 192, pruning to 1/1.56: "
      f"{factor_ratio(768, 768, 192) / 1.56:.4f}")
pair = factorize_layer(w, rank_for_ratio(64, 48, 0.4))
a, mask_a = keep_largest(pair.a, ones_for_fraction(0.5, pair.a.size))
b, mask_b = keep_largest(pair.b, ones_for_fraction(0.5, pair.b.size))
stored = int(mask_a.sum() + mask_b.sum())
print(f"hybrid at (0.4, 0.5): {stored} stored numbers, "
      f"{stored / (64 * 48):.4f} of dense")
print(f"hybrid error {np.linalg.norm(w - a @ b.T):.4f}")
