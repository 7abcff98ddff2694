"""Exact arithmetic of the spherical relation omega = -2m/a on the
integer table a = n(n+1), as the scan kernel of :mod:`wavetriads.search`
reads it on the exact path: the correctly rounded |Omega| of a block of
zonally closed candidates, and the closed-form window of the n3 that can
meet an |Omega| test."""

import numpy as np

from .triad import _least_abs

#: Unit roundoff of float64.
_U = 2.0 ** -53


def _exact_step(X, m1, n1, a2, a3, m2, m3, patterns, with_min):
    """|Omega| = 2|N| / (a1 a2 a3) of a block on the table a = n(n+1),
    correctly rounded by one division (int64 operands, below 2**53, become
    float64 exactly; Python ints divide per element), and min |w| when
    ``with_min``.  N is the residual of the terms m1 a2 a3, m2 a1 a3 and
    m3 a1 a2 under the sum pattern, or the least over the sign patterns
    (:func:`.triad._least_abs`; they share the denominator)."""
    a1 = X[m1, n1]
    N = _least_abs(m1 * a2 * a3, m2 * a1 * a3, m3 * a1 * a2, patterns)
    a = np.asarray(2 * N / (a1 * a2 * a3), dtype=np.float64)
    if not with_min:
        return a, None
    return a, 2.0 * np.minimum(np.minimum(m2 / a2, m3 / a3), m1 / a1)


def _n3_window(c1, c2, m3, n_lo, T, patterns, tau, widen):
    """The n3 of each pair on the exact table, given c = -omega = 2m/a of
    k1 and k2, and m3, where |Omega| <= tau can hold under ``patterns``
    (the hull over the sign patterns), widened by ``widen`` on each side
    and kept in [n_lo, T]: inclusive arrays (lo, hi), lo > hi if empty.

    c3 = 2 m3 / a3 falls as n3 grows, and a pattern meets |Omega| <= tau
    where c3 is within tau of its target u (c1 + c2 for the sum, c2 - c1
    and c1 - c2 for the others): a3 in [2 m3 / (u + tau), 2 m3 / (u - tau)]
    (unbounded above when u <= tau), so n3 between the real
    n(a) = (sqrt(1 + 4a) - 1) / 2 of the ends.  With tau = 0 and widen = 1
    it holds the n3 next to a pattern's real root, where its least nonzero
    |Omega| lies (|Omega| is monotone on each side); such a window off
    [n_lo, T] keeps the nearest end, and a target u <= 0 (no root) T."""
    # Rounding (u_r = 2**-53, terms in u_r**2 dropped): c is within u_r c,
    # u within 2 u_r (c1 + c2), and u -/+ te within 3 u_r (c1 + c2) +
    # 2 u_r tau, so with te = tau + 8 u_r (c1 + c2 + tau) the ends lie past
    # u -/+ tau (1 + u_r): every hit, whose correctly rounded |Omega| is
    # at most tau, is inside.  The n(2 m3 / d) of an end d is then within
    # 3 u_r n + 6 u_r (roundings in q / d, 1 + ., sqrt and - .); ``slack``
    # is over twice that for the n <= T + 2 the clip can tell apart.  An
    # end d <= 1e-300 gives n > T, as d <= 0 (no bound) must.
    te = tau + 8 * _U * (c1 + c2 + tau)
    slack, q = 8 * _U * (T + 4), 8.0 * m3  # 1 + 4a = 1 + q / d
    ends = []
    for u in (c1 + c2,) if patterns == "sum" else (c1 + c2, c2 - c1, c1 - c2):
        lo, hi = (np.sqrt(1 + q / np.maximum(u + s * te, 1e-300)) * 0.5
                  for s in (1, -1))
        ends.append((np.clip(np.ceil(lo - (0.5 + slack + widen)), n_lo,
                             T + 1 - widen),
                     np.clip(np.floor(hi - (0.5 - slack - widen)),
                             n_lo - 1 + widen, T)))
    lo, hi = (np.array(e) for e in zip(*ends))
    empty = lo > hi  # widens no hull
    lo[empty], hi[empty] = T + 1, -1
    return lo.min(axis=0).astype(np.int64), hi.max(axis=0).astype(np.int64)
