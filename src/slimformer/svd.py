"""One-sided Jacobi singular value decomposition.

The decomposition W = U diag(s) V^T is computed by orthogonalizing the
columns of W with plane rotations.  Each sweep visits every column pair once
in a fixed round-robin schedule, so pairs within a round are disjoint and the
rotations of a round can be applied as one vectorized update.  Convergence is
reached when the largest off-diagonal coherence |w_i . w_j| / (|w_i||w_j|)
seen in a sweep drops below 1e-12; the sweep cap is 60.  A column shorter
than 1e-14 * max(m, n) times the longest is rounding noise with no
direction to converge to, so sweeps skip the pairs it is in.

Wide matrices are decomposed through their transpose.  Signs are normalized
so the largest-magnitude entry of every U column is non-negative, which makes
the output deterministic across platforms.

A matrix held as a factor pair A B^T (A: m x r, B: n x r) is decomposed
through its r x r core without being multiplied out: with reduced QR
A = Q_A R_A and B = Q_B R_B, A B^T = Q_A (R_A R_B^T) Q_B^T, so the Jacobi
SVD of the core gives U = Q_A U_c and V = Q_B V_c (Golub & Van Loan 8.6).
That costs O((m + n) r^2) plus a Jacobi solve of size r.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SvdConvergenceError

COHERENCE_TOL = 1e-12
SWEEP_CAP = 60
# a column shorter than this times max(m, n) times the largest column
# carries no direction: sweeps leave it alone and U gets a completion
NEGLIGIBLE = 1e-14


@dataclass(frozen=True)
class SvdResult:
    """U (m x p), singular values (descending, length p), V (n x p)."""

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray


def svd(w: np.ndarray) -> SvdResult:
    """Full singular value decomposition of a 2-D float64 array.

    Deterministic for a fixed input; U and V are C-contiguous.  Raises
    :class:`SvdConvergenceError` with the residual coherence if the sweep
    cap is hit.
    """
    if w.shape[0] >= w.shape[1]:
        u, s, v = _jacobi(w)
    else:
        v, s, u = _jacobi(w.T)
    u, v = _fix_signs(u, v)
    return SvdResult(np.ascontiguousarray(u), s, np.ascontiguousarray(v))


def svd_product(a: np.ndarray, b: np.ndarray) -> SvdResult:
    """Singular value decomposition of a @ b.T from its factors.

    a is m x r and b is n x r; the product is never formed.  Returns
    p = min(m, n, r) triples, sign-normalized like svd, with U and V
    C-contiguous.  The singular values are those of the core R_A R_B^T.
    """
    qa, ra = np.linalg.qr(a)
    qb, rb = np.linalg.qr(b)
    core = svd(ra @ rb.T)
    u, v = _fix_signs(qa @ core.u, qb @ core.v)
    return SvdResult(np.ascontiguousarray(u), core.singular_values,
                     np.ascontiguousarray(v))


def _jacobi(a: np.ndarray):
    """One-sided Jacobi on a tall (m >= n) matrix; returns U (m x n), s, V (n x n)."""
    m, n = a.shape
    w = np.array(a, dtype=np.float64, order="F", copy=True)
    v = np.eye(n, order="F")

    if n > 1:
        residual = _sweep_to_convergence(w, v)
        if residual >= COHERENCE_TOL:
            raise SvdConvergenceError(residual, SWEEP_CAP)

    s = np.sqrt(np.einsum("ij,ij->j", w, w))
    order = np.argsort(-s, kind="stable")
    s = s[order]
    w = w[:, order]
    v = v[:, order]

    # Columns with negligible norm carry no direction information; replace
    # them with a deterministic orthonormal completion so U stays orthogonal.
    cutoff = s[0] * max(m, n) * NEGLIGIBLE if s[0] > 0 else 0.0
    u = np.zeros((m, n))
    kept = s > cutoff
    u[:, kept] = w[:, kept] / s[kept]
    if not kept.all():
        _complete_columns(u, kept)
    return u, s, v


def _sweep_to_convergence(w, v) -> float:
    m, n = w.shape
    schedule = _round_robin(n)
    residual = np.inf
    for _ in range(SWEEP_CAP):
        # rotating rounding noise against a live column never converges;
        # no column outgrows s[0], so this floor is below _jacobi's cutoff
        floor = np.einsum("ij,ij->j", w, w).max() * (m * NEGLIGIBLE) ** 2
        residual = 0.0
        for ps, qs in schedule:
            wp = w[:, ps]
            wq = w[:, qs]
            alpha = np.einsum("ij,ij->j", wp, wp)
            beta = np.einsum("ij,ij->j", wq, wq)
            gamma = np.einsum("ij,ij->j", wp, wq)
            denom = np.sqrt(alpha * beta)
            live = (alpha > floor) & (beta > floor)
            coh = np.zeros_like(gamma)
            np.divide(np.abs(gamma), denom, out=coh, where=live)
            residual = max(residual, float(coh.max()))
            rot = coh >= COHERENCE_TOL
            if not rot.any():
                continue
            zeta = (beta[rot] - alpha[rot]) / (2.0 * gamma[rot])
            t = np.copysign(1.0, zeta) / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta))
            c = 1.0 / np.sqrt(1.0 + t * t)
            sn = c * t
            pr, qr = ps[rot], qs[rot]
            wp, wq = w[:, pr], w[:, qr]
            w[:, pr] = wp * c - wq * sn
            w[:, qr] = wp * sn + wq * c
            vp, vq = v[:, pr], v[:, qr]
            v[:, pr] = vp * c - vq * sn
            v[:, qr] = vp * sn + vq * c
        if residual < COHERENCE_TOL:
            return residual
    return residual


@lru_cache(maxsize=64)
def _round_robin(n: int):
    """Round-robin pair schedule: n-1 rounds of disjoint pairs covering all pairs."""
    players = list(range(n)) + ([n] if n % 2 else [])  # n is a bye slot
    k = len(players)
    rounds = []
    for _ in range(k - 1):
        pairs = sorted(
            tuple(sorted((players[i], players[k - 1 - i])))
            for i in range(k // 2)
            if players[i] != n and players[k - 1 - i] != n
        )
        ps = np.array([p for p, _ in pairs], dtype=np.intp)
        qs = np.array([q for _, q in pairs], dtype=np.intp)
        rounds.append((ps, qs))
        players = [players[0], players[-1]] + players[1:-1]
    return tuple(rounds)


def _complete_columns(u: np.ndarray, kept: np.ndarray) -> None:
    """Fill non-kept columns with unit vectors orthogonal to all others (in place)."""
    k = int(kept.sum())  # kept columns lead: singular values are sorted
    q = np.linalg.qr(u[:, :k], mode="complete")[0]
    u[:, k:] = q[:, k:u.shape[1]]


def _fix_signs(u: np.ndarray, v: np.ndarray):
    flip = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])] < 0
    if flip.any():
        u = u.copy()
        v = v.copy()
        u[:, flip] = -u[:, flip]
        v[:, flip] = -v[:, flip]
    return u, v
