"""Helpers shared by several test modules."""

import math

import numpy as np

from ffsc.shaping import check_unshaped, deshape_raw


def h2(p: float) -> float:
    """Binary entropy in bits, written out so that closed-form references
    do not rest on ``ffsc.model.entropy``."""
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def unshape(xhat, x, cm, m: int) -> np.ndarray:
    """The m bits that shape() embedded into (xhat, x), recovered the way
    the codec's decoder does: ``deshape_raw``, then ``check_unshaped``."""
    data, settled = deshape_raw(xhat, x, cm)
    check_unshaped(data, settled, m)
    return np.unpackbits(np.frombuffer(data, np.uint8), count=m)


def extension_cost(cm) -> float:
    """Bits per sample that coding with cm's extension costs over the
    exact products of its rows, for the worst row (the KL divergence)."""
    k, _, ext = cm.kernel_form()[:3]
    total = 1 << cm.precision
    exact = cm.freq / total
    for _ in range(k - 1):
        exact = np.kron(exact, cm.freq / total)
    coded = ext.freq / total
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(exact > 0, exact * np.log2(exact / coded), 0.0)
    return terms.sum(axis=1).max() / k
