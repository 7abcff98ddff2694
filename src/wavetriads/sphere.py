"""The closed-form window of the n3 that can meet an |Omega| test on the
exact spherical table a = n(n+1) (omega = -2m/a), which the scan kernel of
:mod:`wavetriads.search` reads on the exact path; the residuals there are
those of :func:`wavetriads.triad._terms`."""

import numpy as np

#: Unit roundoff of float64.
_U = 2.0 ** -53


def _n3_window(c1, c2, m3, n_lo, T, patterns, tau, widen):
    """The n3 of each pair on the exact table, given c = -omega = 2m/a of
    k1 and k2, and m3, where |Omega| <= tau can hold under ``patterns``
    (the sum's window, or the hull of the three), widened by ``widen`` on
    each side and kept in [n_lo, T]: inclusive arrays (lo, hi), lo > hi if
    empty.

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
    lo = hi = None
    for u in (c1 + c2,) if patterns == "sum" else (c1 + c2, c2 - c1, c1 - c2):
        a, b = (np.sqrt(1 + q / np.maximum(u + s * te, 1e-300)) * 0.5
                for s in (1, -1))
        a = np.clip(np.ceil(a - (0.5 + slack + widen)), n_lo, T + 1 - widen)
        b = np.clip(np.floor(b - (0.5 - slack - widen)), n_lo - 1 + widen, T)
        empty = a > b  # widens no hull
        a[empty], b[empty] = T + 1, -1
        lo, hi = (a, b) if lo is None else (np.minimum(lo, a),
                                            np.maximum(hi, b))
    return lo.astype(np.int64), hi.astype(np.int64)
