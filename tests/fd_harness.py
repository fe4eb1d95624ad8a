"""The finite-difference harness of the gradient tests and acceptance
check 04.

trace_functional draws a random linear functional over every field of
the cached forward's trace; its coefficients double as the exact
upstream gradients to inject into backward.  fd_relative compares one
parameter entry's central difference (step FD_STEP) of such a loss
with the analytic gradient.  Relative error uses max(|fd|, |an|,
FD_FLOOR) as denominator: the floor keeps structurally zero gradients
well defined (the key-projection bias never affects the loss because
softmax rows are shift invariant) without masking anything above 1e-10
absolute.
"""

import numpy as np

from slimformer.model import ForwardTrace

FD_STEP = 1e-5
FD_TOL = 1e-4
FD_FLOOR = 1e-6


def traced(model, tokens):
    """The cached forward's trace: every supervision point filled."""
    return model.forward(tokens, with_cache=True)[0]


def trace_functional(model, tokens, seed):
    """(loss, upstream): loss(trace) is a random linear functional of
    every trace field.  Its coefficients are drawn from default_rng(seed)
    in field order (embedding output, attention maps, hidden states,
    logits), each normal(shape) / size; upstream is the ForwardTrace of
    them, the gradients of loss to pass to backward."""
    trace = traced(model, tokens)
    rng = np.random.default_rng(seed)

    def coeff(shape):
        c = rng.normal(size=shape)
        return c / c.size  # keeps the loss O(1) so FD noise stays tiny

    c_emb = coeff(trace.embedding_out.shape)
    c_att = tuple(coeff(a.shape) for a in trace.attention)
    c_hid = tuple(coeff(h.shape) for h in trace.hidden)
    c_log = coeff(trace.logits.shape)

    def loss(t):
        total = float(np.sum(c_emb * t.embedding_out))
        total += sum(float(np.sum(c * a)) for c, a in zip(c_att, t.attention))
        total += sum(float(np.sum(c * h)) for c, h in zip(c_hid, t.hidden))
        return total + float(np.sum(c_log * t.logits))

    return loss, ForwardTrace(c_emb, c_att, c_hid, c_log)


def fd_relative(model, tokens, key, index, loss, analytic):
    """Relative error of `analytic` against the central difference of
    loss(traced(model, tokens)) in model.params[key][index]; the entry
    is restored."""
    arr = model.params[key]
    kept = arr[index]
    arr[index] = kept + FD_STEP
    up = loss(traced(model, tokens))
    arr[index] = kept - FD_STEP
    down = loss(traced(model, tokens))
    arr[index] = kept
    fd = (up - down) / (2.0 * FD_STEP)
    return abs(fd - analytic) / max(abs(fd), abs(analytic), FD_FLOOR)
