"""The oracle's Phi2 rules as they stood before the arcsine rule skipped
the exp lanes that underflow, for tests only.

``_phi2_arcsine`` and ``_phi2_near_degenerate`` are the library's bodies
from then, verbatim: the arcsine rule takes exp of every lane, and the
near-degenerate rule takes exp of every exponent, however far below -100,
before ``np.where`` drops it.  The library's rules must return the same
bits for every cell.
"""

import math

import numpy as np

from levdiv.gaussian import _GL_NODES, _TWO_PI, _ndtr, _node_sum


def _phi2_arcsine(h: np.ndarray, k: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Phi2 for 0 < |r| < _GENZ_SPLIT: the rule applied to the integral over
    t in [0, asin r] of exp(-(h^2 + k^2 - 2 h k sin t) / (2 cos^2 t))."""
    # the node factors depend on r alone: evaluate them once per distinct
    # correlation (sweeps repeat each over many cells) and gather
    distinct, at = np.unique(r, return_inverse=True)
    half = np.arcsin(distinct) / 2.0
    s = np.sin(half[:, None] * _GL_NODES)
    s, c2, half = s[at], (1.0 - s * s)[at], half[at]
    hk = (h * k)[:, None]
    hs = ((h * h + k * k) / 2.0)[:, None]
    tail = _node_sum(np.exp((s * hk - hs) / c2))
    ph = _ndtr(h)
    pk = ph if np.array_equal(h, k) else _ndtr(k)  # sweeps query the diagonal
    return tail * half / _TWO_PI + ph * pk


def _phi2_near_degenerate(h: np.ndarray, k: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Phi2 for _GENZ_SPLIT <= |r| < 1 (Genz 2004): the r = +/-1 limit
    plus an integral in x = sqrt(1 - s^2) from 0 to sqrt(1 - r^2), whose
    leading expansion terms are integrated in closed form and the smooth
    remainder by the rule.  Variable names follow Genz's BVNU."""
    h, k = -h, np.where(r < 0.0, k, -k)  # upper-orthant thresholds
    hk = h * k
    omr2 = 1.0 - r * r
    a = np.sqrt(omr2)
    bs = (h - k) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 80.0
    asr = -(bs / omr2 + hk) / 2.0
    bvn = np.where(
        asr > -100.0,
        a * np.exp(asr) * (1.0 - c * (bs - omr2) * (1.0 - d * bs) / 3.0 + c * d * omr2 * omr2),
        0.0,
    )
    b = np.sqrt(bs)
    sp = math.sqrt(_TWO_PI) * _ndtr(-b / a)
    bvn -= np.where(
        hk > -100.0,
        np.exp(-np.maximum(hk, -100.0) / 2.0) * sp * b * (1.0 - c * bs * (1.0 - d * bs) / 3.0),
        0.0,
    )
    a = a / 2.0
    xs = (a[:, None] * _GL_NODES) ** 2
    hk_, c_, d_ = hk[:, None], c[:, None], d[:, None]
    asr = -(bs[:, None] / xs + hk_) / 2.0
    sp = 1.0 + c_ * xs * (1.0 + 5.0 * d_ * xs)
    rs = np.sqrt(1.0 - xs)
    ep = np.exp(-(hk_ / 2.0) * xs / (1.0 + rs) ** 2) / rs
    terms = np.where(asr > -100.0, np.exp(asr) * (sp - ep), 0.0)
    bvn = (a * _node_sum(terms) - bvn) / _TWO_PI
    # each branch evaluates Phi only on its own cells
    out = -bvn  # r < 0 and h >= k
    pos = r > 0.0
    out[pos] = bvn[pos] + _ndtr(-np.maximum(h[pos], k[pos]))
    gap = (r < 0.0) & (h < k)
    hg, kg = h[gap], k[gap]
    below = hg < 0.0  # Phi(k) - Phi(h) below zero, Phi(-h) - Phi(-k) above
    out[gap] = _ndtr(np.where(below, kg, -hg)) - _ndtr(np.where(below, hg, -kg)) - bvn[gap]
    return out
