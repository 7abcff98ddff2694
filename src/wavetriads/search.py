"""Exhaustive enumeration of exact and approximate resonant triads.

The closure table (``CLOSURES``) states for each vector-closure convention
its candidates, its completions of donor pairs as arrays (the classifier's
bridge waves), the domain shapes it accepts and the sign patterns of its
bound.
Candidates are pairs k1 <= k2 in lexicographic order with their third
vector, so outputs are duplicate-free:

``both``
    Component-wise closure k3 = k1 + k2, self-pair k2 = k1 included.
    Square domains only.  Used for square, rectangular and plane spectra.
``zonal``
    m3 = m1 + m2 with n3 free: every n3 of the domain, or on the exact
    path the n3 of each pair's window (below).  Floats include the
    self-pair; ``skip_equal_n_pairs`` drops the pairs n1 = n2.  Square
    and triangular domains; the classifier's latitudinal selection rules
    apply under this closure only.  Used on the sphere, whose derived
    exact triad (4,12)+(5,14) -> (9,13) closes in m but not in n.
``box``
    Independent +/- per component, the selection rule of cosine basin
    modes: k1 < k2 < k3, no self-pair.  Square domains only.

``closure="auto"`` picks ``zonal`` for ``rossby_sphere`` and ``both``
otherwise; ``box`` is never chosen automatically.

One scan kernel serves both number systems.  Each public call builds one
per-mode table (:func:`_table`), which the scan, the bound and the bridge
search read, and results once per mode (:meth:`.triad.TriadColumns.modes`).
The scan reads the closure's candidates in blocks of at most ``_BLOCK``
(or one k2 row; one k1 row under ``zonal``): ``both`` and ``box`` read a
block's (k1, m2) rows in one range expansion over per-n1 templates of a k2
row's completions, made once a call (:func:`_template_blocks`), and the
scan gives their members, k1 included, |Omega| and min |w|
(where the test needs it) as arrays, with no :class:`Triad` built.  Its
kernels read the table by flat offset m R + n (:func:`.triad._at`; the exact
table from its one row) and select candidates by index (``take``).  The
searches select on those arrays and keep what they return as columns
(:class:`.triad.TriadColumns`), sorted by a stable argsort of d_ratio; the
public searches make their triads from the columns, and the CLI renders the
columns themselves.  The classifier reads the scan's arrays.  The bound's
witness is the first triad of least nonzero |Omega| in scan order (sum
pattern; any pattern under box closure).  :mod:`.triad` holds the triad
records and columns, the residual terms of both number systems
(:func:`.triad._terms`) and the scan's step of |Omega| and min |w|
(:func:`.triad._step`), which the build rounds alike; :mod:`.sphere` holds
the exact table's n3 windows.

* Floats: the table is the omega grid, which holds the ``eval_frequency``
  values bit for bit, and the residuals are the float64 expressions of the
  sign-pattern rule of the triads, so each accept/reject decision is made
  on the |Omega| and d_ratio that the returned triad carries.
* Exact rationals (the spherical dispersion; zonal closure only, without
  the self-pair): omega = -2m/a with a = n(n+1), the table holds a, and
  the terms are the integers m1 a2 a3, m2 a1 a3 and m3 a1 a2, so each
  sign pattern's Omega is -2 N / (a1 a2 a3) for its integer residual N:
  Omega = 0 is N == 0, never a tolerance, the least |N| picks the
  pattern, and a built row makes one ``Fraction``, its Omega (a member's
  -2m/a is made per mode).  |Omega| = 2|N| / (a1 a2 a3) is correctly
  rounded by one division, in float64 while both are below 2**53 (T up
  to 455), else in Python integers.  So the float |Omega| is that of the
  rational one, d is the triad's d_ratio (the build reads no ``Fraction``
  as a float), and thresholds decide on floats; rounding is monotone, so
  only a float equal to omega_max can misjudge 0 < |Omega| <= omega_max,
  and only those ties are built.  At fixed m3, omega3 = -2 m3 / a3 is
  monotone in n3, so the n3 where |Omega| <= tau can hold form one window
  per pair and sign pattern, in closed form (:mod:`.sphere`).  Zonal
  blocks read only those under the caller's tau: the exact search's 0,
  the classifier's omega_max, and the bound's n3 next to the root; the
  near and max-discrepancy searches read every n3.

Certified tile pruning.  Given a finite d_max ceiling on the float grid
(``find_near_triads``, and so ``plan_experiment`` and ``geometry_sweep``),
``both`` closure's blocks cut the k2 box of every k1 into 8 x 8 tiles and
bound them in blocks that span many k1 rows.  A tile is live for a sign
pattern unless a lower bound on that pattern's |Omega| over it exceeds
d_max |w1| by a slack that covers every rounding (:func:`_live_tiles`).
The bound reads only the grid, so it holds for every float kind, the
non-monotone ``bve_plane`` included; a grid with inf or NaN, or near
overflow, drops nothing.  A certified grid bounds the sum pattern only:
if every cell is finite and positive, the grid is nondecreasing along
both axes with max/min below 2**40, and d_max <= 1/2, then w3 >= w1, w2
(k3 = k1 + k2), so the residuals w1 + (w3 - w2) and w2 + (w3 - w1) of
the other patterns are at least min |w|; rounded twice from terms below
2**40 min |w|, each errs by less than 2**-12 of itself (or overflows),
so its float d exceeds 1/2.  Other grids and d_max bound every pattern
of the call.  A grid equal to its transpose bit for bit (read from the
grid, not from the basin's sides, so no choice of formula can sway it;
NaN fails it) bounds only the tile pairs that can hold m3 <= n3, and
adds each survivor's transpose, its members in lexicographic order: a
candidate and its transpose read the same three values, RESIDUALS map
onto themselves bit for bit when w1 and w2 swap (a + b - c stays,
a - b + c and -a + b + c trade), and the bound and the prefilter hold
under either order of the members, so every hit with m3 > n3 is the
transpose of a surviving one.  Two phases: the bound's blocks collect
each pattern's live tiles; then a per-tile prefilter on each bounded
pattern's residual reads all its live tiles, each tile row as runs of
cells, and leaves a few cells, sorted once and yielded in blocks of at
most ``_BLOCK`` as every closure yields them (:func:`_tile_scan`),
which the scan steps under the caller's patterns with its own float64
expressions, so every output is that of the dense scan.
``d_max = inf``, float ``zonal`` and ``box`` closure, the
max-discrepancy search, and the float bound and classifier scan densely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .dispersion import (
    DispersionSpec,
    OmegaValue,
    SpectralDomain,
    WaveVector,
    check_wavevector,
    eval_frequency,
    omega_grid,
)
from .errors import UsageError
from .sphere import _U, _n3_window
from .triad import (  # the triad records, importable from here as before
    NUMERIC_EXACT_D,
    RESIDUALS,
    SIGN_PATTERNS,
    BoundReport,
    DiscrepancyBound,
    Triad,
    TriadColumns,
    _at,
    _build,
    _step,
)


# ---------------------------------------------------------------------------
# single-triad discrepancy
# ---------------------------------------------------------------------------

def discrepancy(spec: DispersionSpec, triple: Sequence, signs=(1, 1, -1)) -> OmegaValue:
    """Signed frequency residual s1*w1 + s2*w2 + s3*w3 of a candidate triad.

    Exact rational for the spherical dispersion (zero is decided exactly),
    float otherwise.  Raises DomainError on inadmissible vectors.
    """
    if len(triple) != 3 or len(signs) != 3:
        raise UsageError("a triad candidate needs three vectors and three signs")
    if any(s not in (-1, 1) for s in signs):
        raise UsageError("signs must be +1 or -1")
    ks = [check_wavevector(WaveVector(*k)) for k in triple]
    ws = [eval_frequency(spec, k).omega for k in ks]
    return signs[0] * ws[0] + signs[1] * ws[1] + signs[2] * ws[2]


def _check_threshold(name: str, value, ceiling: bool = False) -> None:
    """Reject a search threshold that is NaN, not positive or infinite.

    A NaN compares false against everything, so it would silently select
    no triad, and so would an infinite floor.  Only a ``ceiling`` may be
    infinite: ``d_max = inf`` keeps every closed triad."""
    if math.isnan(value) or value <= 0:
        raise UsageError(f"{name} must be positive, got {value!r}")
    if math.isinf(value) and not ceiling:
        raise UsageError(f"{name} must be finite, got {value!r}")


# ---------------------------------------------------------------------------
# closure table
# ---------------------------------------------------------------------------

#: Most candidates (tiles, in the near search's bound) in a block unless
#: one k2 row (k1 row under ``zonal``; m tile) holds more: it bounds
#: memory, spreads numpy calls.
_BLOCK = 2 ** 12


def _expand(starts, counts, *per_range):
    """The concatenated integer ranges [starts[r], starts[r] + counts[r]),
    and each array of ``per_range`` repeated to line up with them."""
    values = np.repeat(starts + counts - np.cumsum(counts), counts)
    values += np.arange(values.size)
    return (values, *(np.repeat(v, counts) for v in per_range))


def _runs(counts):
    """Runs of consecutive rows, given their ``counts`` (of candidates, or
    of the k2 rows of k1 rows), as index arrays of the rows that count
    any: each run takes as many rows as fit in ``_BLOCK``, and at least
    one."""
    live = np.flatnonzero(counts)
    ends, lo = np.cumsum(counts[live]), 0
    while lo < live.size:
        end = (ends[lo - 1] if lo else 0) + _BLOCK
        hi = max(int(np.searchsorted(ends, end, "right")), lo + 1)
        yield live[lo:hi]
        lo = hi


def _both_window(T, m1, n1):
    """The k2 of k1 = (m1, n1) under ``both`` closure: those of the box
    m1 <= m2 <= T - m1, 1 <= n2 <= T - n1, which keeps k3 = k1 + k2 in the
    square, that do not precede k1 in lexicographic order (the order rule
    drops n2 < n1 from the box's first row).  Returns the box as inclusive
    ranges (m_lo, m_hi, n_lo, n_hi).  ``m1`` and ``n1`` may be arrays."""
    return m1, T - m1, 1, T - n1


def _template_blocks(X, T, completions, self_pair):
    """Candidates pairing each k1 = (m1, n1) with whole k2 rows m1 <= m2 <=
    T - m1, read from X by flat offset and from per-n1 templates (made once
    a call) by index: a k2 row's completions (n2, n3) in scan order, n2
    ascending, each with the n3 in 1..T of ``completions(n1, n2)``; k1's
    own row skips its n2 < n1, and n2 = n1 without the ``self_pair``.  One
    segment per (k1, m2), built for runs of k1 rows of at most ``_BLOCK``
    segments and cut into blocks between segments as :func:`_runs` cuts
    rows, the open block waiting for the next run's segments."""
    n = np.arange(T + 1)
    n3 = np.stack(completions(n[:, None], n), axis=2)
    live = (n3 >= 1) & (n3 <= T) & (np.outer(n, n) > 0)[..., None]
    (t1, t2, _), t3 = np.nonzero(live), n3[live]  # templates in n1 order
    size, skip = (np.bincount(v, minlength=T + 1)
                  for v in (t1, t1[t2 < t1 + (not self_pair)]))
    start = np.cumsum(size) - size
    m1, n1 = np.indices((T // 2, T)).reshape(2, -1) + 1  # the k1

    def block(lo, count, a, b, m2):  # the segments' candidates
        t, a, b, m2 = _expand(lo, count, a, b, m2)
        n2, n3 = t2.take(t), t3.take(t)
        return a, b, _at(X, m2, n2), _at(X, a + m2, n3), m2, n2, n3

    held = [np.zeros(0, np.int64)] * 5  # the segments of the open block
    for rows in _runs(T + 1 - 2 * m1):
        m2, a, b = _expand(m1[rows], T + 1 - 2 * m1[rows], m1[rows], n1[rows])
        lo = start[b] + skip[b] * (m2 == a)  # each segment's first index
        held = [np.concatenate(p) for p in zip(
            held, (lo, start[b] + size[b] - lo, a, b, m2))]
        *full, last = _runs(held[1])
        for s in full:
            yield block(*(v[s] for v in held))
        held = [v[last] for v in held]
    if held[0].size:
        yield block(*held)


def _both_blocks(X, domain, skip_equal_n_pairs, test):
    """Pairs k1 <= k2 with k3 = k1 + k2 in the square: per k1 the box of
    :func:`_both_window` (:func:`_template_blocks`, n3 = n1 + n2).  A
    finite ceiling d_max on the float grid reads only the cells of
    :func:`_tile_scan`."""
    patterns, _, _, d_max = test
    if X.dtype == np.float64 and d_max and math.isfinite(d_max):
        return _tile_scan(X, domain, patterns, d_max)
    return _template_blocks(X, domain.truncation, lambda n1, n2: (n1 + n2,),
                            True)


def _both_waves(ma, na, mb, nb, T, patterns):
    """ka + kb; under any sign pattern also ka - kb and kb - ka."""
    ms, ns = [ma + mb], [na + nb]
    if patterns == "all":
        ms += [ma - mb, mb - ma]
        ns += [na - nb, nb - na]
    return np.stack(ms, 1), np.stack(ns, 1)


def _zonal_blocks(X, domain, skip_equal_n_pairs, test):
    """Pairs k1 <= k2 with m3 = m1 + m2, k1 < k2 on the exact table, in
    (k2, n3) order, each with every n3 of the domain or, on the exact
    table given a finite tau, those of :func:`.sphere._n3_window`.
    ``skip_equal_n_pairs`` leaves out the pairs n1 = n2.  Pairs are
    formed for runs of k1 rows of at most ``_BLOCK`` pairs; the rows are
    cut into blocks by their n3 counts as :func:`_runs` cuts them, the
    last block waiting for the next run's rows, so the pairs held, each
    with an n3, never outnumber a block's candidates."""
    T, exact = domain.truncation, X.dtype != np.float64
    window = exact and math.isfinite(test[1])
    mm, nn = domain.mode_arrays()
    i = np.flatnonzero(2 * mm <= T)  # the modes that can be k1
    # Modes come in m order, so the k2 with m2 <= T - m1 are a run.
    j0, stop = i + exact, np.searchsorted(mm, T - mm[i], "right")
    xm = _at(X, mm, nn)
    cm = 2.0 * mm / xm.astype(np.float64) if window else None  # c = 2m/a

    def block(k, j, lo, count):  # k, j: the modes k1, k2
        n3, p = _expand(lo, count, np.arange(k.size))  # p: each one's pair
        a, b, x2, m2, n2 = (
            v.take(p) for v in (mm[k], nn[k], xm[j], mm[j], nn[j]))
        return a, b, x2, _at(X, a + m2, n3), m2, n2, n3

    held = [np.zeros(0, np.int64)] * 4
    for rows in _runs(stop - j0):
        j, k = _expand(j0[rows], stop[rows] - j0[rows], i[rows])
        if skip_equal_n_pairs:
            keep = nn[j] != nn[k]
            j, k = j[keep], k[keep]
        m3 = mm[k] + mm[j]  # the domain's n3 run from lo to hi
        lo, hi = (m3 if domain.shape == "triangular" else np.ones_like(m3)), T
        if window:
            lo, hi = _n3_window(cm[k], cm[j], m3, lo, T, *test[:3])
            keep = np.flatnonzero(hi >= lo)
            k, j, lo, hi = k[keep], j[keep], lo[keep], hi[keep]
        k, j, lo, count = held = [np.concatenate(p) for p in zip(
            held, (k, j, lo, hi - lo + 1))]
        if count.sum() <= _BLOCK:  # one open block so far
            continue
        starts = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
        cuts = [starts[r[0]] for r in _runs(np.add.reduceat(count, starts))]
        for c, d in zip(cuts, cuts[1:]):
            yield block(*(p[c:d] for p in held))
        held = [p[cuts[-1]:] for p in held]
    if held[0].size:
        yield block(*held)


def _zonal_waves(ma, na, mb, nb, T, patterns):
    """Every n3 at m3 = ma + mb; under any sign pattern also at
    m3 = |ma - mb|."""
    ms = (ma + mb,) if patterns == "sum" else (ma + mb, abs(ma - mb))
    m3 = np.repeat(np.array(ms).T, T, axis=1)
    return m3, np.arange(m3.size).reshape(m3.shape) % T + 1


def _box_waves(ma, na, mb, nb, T, patterns):
    """m3 = |ma - mb| or ma + mb with n3 = |na - nb| or na + nb, in any
    combination, in ascending (m3, n3) order (|a - b| < a + b for positive
    components)."""
    dm, sm, dn, sn = abs(ma - mb), ma + mb, abs(na - nb), na + nb
    return np.array((dm, dm, sm, sm)).T, np.array((dn, sn, dn, sn)).T


def _box_blocks(X, domain, skip_equal_n_pairs, test):
    """Box-closed candidates, k3 in ascending (m3, n3) order.  Each
    unordered triple regenerates from any of its three pairs, so a
    candidate is emitted only from its two lexicographically smallest
    members: k1 < k2 < k3.  As k2 follows k1, m2 >= m1 and a completion
    with m3 = |m1 - m2| < m2 precedes k2; only m3 = m1 + m2 <= T remains,
    with n3 = |n1 - n2| (n2 != n1) then n1 + n2 (:func:`_template_blocks`,
    no self-pair)."""
    return _template_blocks(X, domain.truncation,
                            lambda n1, n2: (abs(n1 - n2), n1 + n2), False)


@dataclass(frozen=True)
class _Closure:
    """A closure convention, as the kernels, the bound and the bridge
    search see it.

    ``blocks(X, domain, skip_equal_n_pairs, test)`` yields the
    candidates in scan order as blocks (m1, n1, x2, x3, m2, n2, n3), one
    array element per candidate, each of at most ``_BLOCK`` candidates or
    one k2 row under ``both`` and ``box``, one k1 row under ``zonal``
    (:func:`_runs`), and never an empty block: the coordinates
    of k1, k2 and n3 (m3 = m1 + m2 under every closure) and the values at
    k2 and k3 of the per-mode table X.  ``test`` = (patterns, tau, widen,
    d_max) is the caller's (:func:`_scan`), and each closure leaves out
    only candidates it proves fail it: ``both`` the tiles of a finite
    d_max on the float grid (:func:`_tile_scan`, ``_BLOCK`` survivors a
    block), ``zonal`` the n3 outside the windows of a finite tau on the
    exact table, ``box`` none.  ``both`` admits the self-pair k2 = k1,
    ``zonal`` on floats only, ``box`` never.
    ``waves(ma, na, mb, nb, T, patterns)`` gives the waves that close the
    donor pairs (ka, kb) of the coordinate arrays, each once, as arrays
    (m3, n3) of (pair, completion), some off the domain: the classifier's
    bridge candidates.
    """

    name: str
    shapes: tuple            # domain shapes it accepts
    blocks: Callable
    waves: Callable
    bound_patterns: str = "sum"  # sign patterns of the least nonzero |Omega|
    exact: bool = False      # the exact path serves it
    free_n3: bool = False    # n3 is free: the n-selection rules apply


#: The closure table: ``both``, ``zonal`` and ``box`` by name.
CLOSURES = {c.name: c for c in (
    _Closure("both", ("square",), _both_blocks, _both_waves),
    _Closure("zonal", ("square", "triangular"), _zonal_blocks, _zonal_waves,
             exact=True, free_n3=True),
    _Closure("box", ("square",), _box_blocks, _box_waves,
             bound_patterns="all"),
)}


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

#: float64 holds every integer below 2**53 exactly.  Exact-path
#: denominators reach (T (T+1))^3 and 2|N| reaches 6 T (T (T+1))^2.
_FLOAT_EXACT_LIMIT = 2 ** 53


def _table(spec, T, members=()):
    """The per-mode table over m, n <= T, its m axis grown to the m and its
    n axis to the n of ``members`` (each checked to be a mode), that the
    kernels and the results read (:func:`.triad._omegas`): a = n(n+1) on
    the exact path (omega = -2m/a), else the omega grid of those extents."""
    M, N = map(max, zip((T, T), *map(check_wavevector, members)))
    if spec.exactness:
        n = np.arange(N + 1, dtype=np.int64)
        amax = N * (N + 1)
        if max(6 * M * amax ** 2, amax ** 3) >= _FLOAT_EXACT_LIMIT:
            n = n.astype(object)
        return np.broadcast_to(n * (n + 1), (M + 1, N + 1))
    return omega_grid(spec, M, N)


def _scan(X, domain, rule, skip_equal_n_pairs, test):
    """The scan kernel on the table X, the one loop that steps candidates:
    the closure's blocks under the caller's ``test`` = (patterns, tau,
    widen, d_max) as ((m1, n1, m2, n2, n3), a, amin) per candidate in scan
    order, with k3 = (m1 + m2, n3), a = |Omega| (least over the sign
    patterns when patterns="all") and amin = min |w|, which floats always
    carry and the exact table only under tau = inf (the near and
    max-discrepancy searches), else None: its other consumers decide on
    N == 0.  Only candidates that cannot have |Omega| <= tau or d <= d_max
    are left out; tau = inf and d_max None or inf leave out none."""
    for m1, n1, x2, x3, m2, n2, n3 in rule.blocks(
            X, domain, skip_equal_n_pairs, test):
        a, amin = _step(X, m1, n1, x2, x3, m2, m1 + m2, test[0],
                        test[1] == math.inf)
        yield (m1, n1, m2, n2, n3), a, amin
        del m1, n1, x2, x3, m2, n2, n3, a, amin  # before the next block


#: Side of the k2 tiles that the pruned near search bounds as one; the
#: rounding slack of :func:`_tile_scan` is derived for sides up to 8.
#: A 16 or 32 coarse pass before these, or 4 x 4 tiles within the live
#: ones, made the near-scan rungs slower.
_TILE = 8
#: Most tiles whose cells one prefilter gather reads (bounds its memory:
#: at 256 the T=88 near search peaks in the prefilter, at 0.96 MB; 512
#: read slower).
_GATHER_TILES = 256


def _take(values, index, out):
    """``values.take(index, 0, out)``, unbuffered: every index is valid."""
    return values.take(index, 0, out, "clip")


def _widen(spread, steps, a, b):
    """spread += steps * max(a, b, 0), in place on ``a``."""
    np.maximum(np.maximum(a, b, out=a), 0.0, out=a)
    spread += np.multiply(a, steps, out=a)


def _live(r, spread, bound):
    """~(|r| - spread > bound), in place on ``r``: a NaN keeps its tile."""
    return ~(np.subtract(np.abs(r, out=r), spread, out=r) > bound)


def _window_tables(X, t, mirror):
    """Least and greatest forward difference of the omega grid X over the
    t x t window at every anchor (i, j) <= (T, T), with Gm(i, j) =
    X[i+1, j] - X[i, j] and Gn(i, j) = X[i, j+1] - X[i, j]: per axis m, n
    one array (cell i R + j, min/max), its cells the rows, R = T + 1 + t
    long, of the padded grid of :func:`_tile_scan`, so one gather reads a
    cell's two extremes.  Cells off the grid hold the reduction's neutral
    value, so a window reads only the differences inside it.  Reduced in
    place: shifts by s = 1, 2, 4, ... (the last topped up to t) grow
    w-wide windows to w + s.  On a ``mirror`` grid (equal to its
    transpose) Gn is Gm transposed, and so are its extremes: the n table
    is the m table's transposed copy."""
    T = X.shape[0] - 1
    W, R = X[1:, 1:], T + 1 + t
    tables = np.empty((2, R, R, 2))
    shifts = [min(2 ** k, t - 2 ** k) for k in range((t - 1).bit_length())]
    for axis, G in zip(tables[:1] if mirror else tables,
                       (np.diff(W, axis=a) for a in (0, 1))):
        for S, reduce, pad in zip(np.moveaxis(axis, -1, 0),
                                  (np.minimum, np.maximum), (np.inf, -np.inf)):
            S.fill(pad)
            S[1:1 + G.shape[0], 1:1 + G.shape[1]] = G
            for s in shifts:
                reduce(S[:-s], S[s:], out=S[:-s])
                reduce(S[:, :-s], S[:, s:], out=S[:, :-s])
    if mirror:
        tables[1] = tables[0].transpose(1, 0, 2)
    return tables.reshape(2, -1, 2)


def _live_tiles(Pf, R, tables, m_tiles, n_tiles, patterns, d_max, slack):
    """Masks (m tile, n tile), one per sign pattern of ``patterns`` in
    SIGN_PATTERNS order, over a block's m tiles (m1, m_lo, m_hi) by the n
    tiles (n1, n_lo, n_hi), read from ``Pf`` and ``tables`` at offsets
    m R + n: False only where a lower bound on the pattern's |Omega| over
    the tile exceeds d_max |w1| >= d_max min |w|.

    With D = w3 - w2 and S = w3 + w2 the residuals are w1 - D, w1 + D and
    S - w1.  One step along an axis moves D by Gx(k3) - Gx(k2) and S by
    Gx(k3) + Gx(k2), each bounded by the extremes of Gx over the windows
    at the tile's k2 and k3 corners, gathered as (min, max) pairs, one
    gather per axis and corner; a tile's points lie within its farthest
    edge steps of its centre, where D and S are evaluated.  The float64
    expressions are evaluated in place, in a few tile-sized buffers."""
    (m1, m_lo, m_hi), (n1, n_lo, n_hi) = (v[:, None] for v in m_tiles), n_tiles
    cm, cn = (m_lo + m_hi) // 2, (n_lo + n_hi) // 2
    k1, k2 = m1 * R + n1, m_lo * R + n_lo  # k1, and the tiles' k2 corners
    k3 = k1 + k2
    a, b = (np.empty(k1.shape) for _ in range(2))
    e2, e3 = (np.empty(k1.shape + (2,)) for _ in range(2))
    spread_d = np.zeros(k1.shape)
    spread_s = np.zeros(k1.shape) if patterns == "all" else None
    for table, steps in zip(tables, (m_hi - cm, n_hi - cn)):
        _take(table, k2, e2), _take(table, k3, e3)  # (min, max) pairs
        lo2, hi2, lo3, hi3 = e2[..., 0], e2[..., 1], e3[..., 0], e3[..., 1]
        # Both extremes are -inf/+inf only in a window wholly off the
        # grid, where the tile takes no step; max(., 0) keeps 0 * inf out.
        _widen(spread_d, steps, np.subtract(hi3, lo2, out=a),
               np.subtract(hi2, lo3, out=b))
        if patterns == "all":
            _widen(spread_s, steps, np.add(hi3, hi2, out=a),
                   np.negative(np.add(lo3, lo2, out=b), out=b))
    del e2, e3, lo2, hi2, lo3, hi3  # before the centres' gathers
    np.add(cm * R, cn, out=k2)  # the tiles' centres
    np.add(k1, k2, out=k3)
    x2, x3, w1 = _take(Pf, k2, a), _take(Pf, k3, b), Pf.take(k1)
    # 1 + 16u and ``slack`` cover the rounding of this bound, of the
    # residuals and of d = |Omega| / min |w| (see _tile_scan).
    bound = np.abs(w1)
    bound *= d_max
    bound *= 1 + 16 * _U
    bound += slack
    if patterns == "all":
        r = np.add(x3, x2)
        s_live = _live(np.subtract(r, w1, out=r), spread_s, bound)
    D = np.subtract(x3, x2, out=x3)
    live = [_live(np.subtract(w1, D, out=x2), spread_d, bound)]
    if patterns == "all":
        live += [_live(np.add(w1, D, out=x2), spread_d, bound), s_live]
    return live


def _prefilter(E, R, signs, scale, tiles):
    """Keys k1 R^2 + k2 of the cells with |s1 w1 + s2 w2 + s3 w3| <=
    scale |w1| (``signs``; summed as RESIDUALS sum them) of the ``tiles``
    (their corners' keys), read from the runs E[i] = Pf[i:i + w] of the
    padded grid ``Pf`` (w divides ``_TILE``), each tile row as runs of w
    cells, ``_GATHER_TILES`` whole tiles a gather, in place, gone before
    the next; only the hits' keys are decoded."""
    t, w = _TILE, E.shape[1]
    runs = np.add.outer(np.arange(t) * R, np.arange(0, t, w)).ravel()
    cells = np.add.outer(runs, np.arange(w)).ravel()  # in gather order
    add = {1: np.add, -1: np.subtract}  # a term by its sign
    hits = [np.zeros(0, np.int64)]  # as offsets into the tiles' cells
    for c in range(0, tiles.size, _GATHER_TILES):
        k1, k = np.divmod(tiles[c:c + _GATHER_TILES, None], R * R)
        w1, k = E[k1, 0], k + runs
        r = E.take(k, 0).reshape(k.shape[0], -1)
        k += k1
        w3 = E.take(k, 0).reshape(r.shape)
        add[signs[2]](add[signs[1]](signs[0] * w1, r, out=r), w3, out=r)
        at = np.abs(r, out=r) <= scale * np.abs(w1) + 1e-300
        hits.append(np.flatnonzero(at) + c * cells.size)
        del k, w3, r  # before the next gather makes its own
    at = np.concatenate(hits)
    return tiles.take(at // cells.size) + cells.take(at % cells.size)


def _tile_scan(X, domain, patterns, d_max):
    """The candidates of ``both`` closure that may have d <= d_max (grid X,
    finite d_max), unstepped, as blocks of :func:`_both_blocks` of at most
    ``_BLOCK`` candidates in scan order.  The k2 boxes
    (:func:`_both_window`) are cut into ``_TILE``-wide tiles from their low
    corners, once: the m tiles of every row and, as the n range depends on
    n1 alone, the n tiles of every n1.  Two phases.  First, blocks of m
    tiles by all n tiles, at most ``_BLOCK`` tiles or one m tile, meet the
    bound, and each pattern collects its live tiles by the keys of their
    corners; on a grid equal to its transpose (the module docstring) the
    m tiles go by least m3 and the n tiles by greatest n3, and each block
    takes only the n tiles its first m tile can reach with m3 <= n3.
    Then, the difference tables gone, each pattern keeps the cells of all
    its live tiles, read as runs from the grid padded with NaN (k3 off the
    box gives a NaN residual), whose residual is r <= d_max |w1| (1 +
    16u).  A hit's least residual a has fl(a / min |w|) <= d_max, so
    a <= d_max min |w| (1 + u) <= d_max |w1| (1 + u), below the threshold
    after two roundings (a subnormal d_max counts as the least normal
    float; 1e-300 covers an underflowing product).  The survivors'
    keys, sorted once, meet the order rule k2 >= k1, gain their transposes
    on a symmetric grid, and are decoded ``_BLOCK`` at a time; the scan
    steps every one, so scan order and triads stay the dense scan's."""
    T, t = domain.truncation, _TILE
    P = np.pad(X, (0, t), constant_values=np.nan)
    R, Pf = P.shape[1], P.ravel()  # modes are flat offsets m R + n into P
    m1, n1 = np.arange(1, T // 2 + 1), np.arange(1, T)
    m_lo, m_hi, n_lo, n_hi = _both_window(T, m1, n1)
    tiles = []  # the m tiles, then the n tiles
    for k, lo, hi in ((m1, m_lo, m_hi), (n1, np.full_like(n1, n_lo), n_hi)):
        i, k, lo, hi = _expand(0, (hi - lo) // t + 1, k, lo, hi)
        tiles.append((k, lo + i * t, np.minimum(lo + i * t + t - 1, hi)))
    W = X[1:, 1:]
    mirror = np.array_equal(W, W.T)  # False on NaN and on non-square grids
    (m1, m_lo, _), (n1, _, n_hi) = tiles
    first = np.zeros(m1.size, np.int64)  # each m tile's first n tile
    if mirror:  # m tiles by least m3, n tiles by greatest n3
        tiles = [[v[o] for v in tile] for tile, o in zip(tiles, (
            np.argsort(k, kind="stable") for k in (m1 + m_lo, n1 + n_hi)))]
        (m1, m_lo, _), (n1, _, n_hi) = tiles
        first = np.searchsorted(n1 + n_hi, m1 + m_lo)  # m3 <= n3 from here
    n_tiles = tiles[1]
    # A tile's key k1 R^2 + k2 (its corner's) sums an m and an n tile part.
    m_key, n_key = (m1 * R * R + m_lo) * R, n1 * R * R + n_tiles[1]
    scale = max(d_max, 2.0 ** -1022) * (1 + 16 * _U)
    live = [[np.zeros(0, np.int64)] for _ in SIGN_PATTERNS]  # tile keys
    with np.errstate(invalid="ignore", over="ignore"):
        tables = _window_tables(X, t, mirror)
        omax = float(np.max(np.abs(W)))
        # With at most 4 steps per axis (8 x 8 tiles) each value the bound
        # and the residuals round is at most 40 omax in size, and their
        # rounding errors add up to less than 176 u omax; 1e-300 covers the
        # absolute error of subnormal results.  The in-place kernel rounds
        # the same expressions in the same order.  A grid that holds inf or
        # NaN, or lies within 64x of overflow, prunes nothing.
        slack = (256 * _U * omax + 1e-300 if math.isfinite(64 * omax)
                 else math.inf)
        # The certificate (module docstring): NaN fails 0 < least; the
        # least forward difference is the least of the min tables.
        least = float(np.min(W))
        bounded = "sum" if (d_max <= 0.5 and 0 < least
                            and omax < 2.0 ** 40 * least
                            and tables[:, :, 0].min() >= 0) else patterns
        b = 0
        while b < m1.size:
            j0 = first[b]  # the block's n tiles: those its first m tile needs
            rows = max(_BLOCK // max(n_tiles[0].size - j0, 1), 1)
            block = [v[b:b + rows] for v in tiles[0]]
            n_block = [v[j0:] for v in n_tiles]
            for held, mask in zip(live, _live_tiles(
                    Pf, R, tables, block, n_block, bounded, d_max, slack)):
                i, j = np.nonzero(mask)
                held.append(m_key[b + i] + n_key[j0 + j])
            b += rows
        live = [np.concatenate(held) for held in live]
        # The runs E[i] = Pf[i:i + w], w | _TILE, replace the tables and
        # the padded grid (E[i, 0] = Pf[i] at every cell of the grid).
        del tables
        E = np.lib.stride_tricks.sliding_window_view(Pf, math.gcd(t, 4))
        E = E.copy()
        del P, Pf
        key = np.concatenate([_prefilter(E, R, signs, scale, held)
                              for signs, held in zip(SIGN_PATTERNS, live)])
    key = key[key % (R * R) >= key // (R * R)]  # the order rule k2 >= k1
    if mirror:  # each key's transpose, its members in lexicographic order
        k1, k2 = (k % R * R + k // R for k in np.divmod(key, R * R))
        key = np.concatenate((key, np.minimum(k1, k2) * R * R
                              + np.maximum(k1, k2)))
    key = np.sort(np.concatenate(([-1], key)))  # after a -1 sentinel
    key = key[1:][key[1:] > key[:-1]]  # once each
    for b in range(0, key.size, _BLOCK):
        k1, k2 = np.divmod(key[b:b + _BLOCK], R * R)
        (m1, n1), (m2, n2) = np.divmod(k1, R), np.divmod(k2, R)
        yield m1, n1, E[k2, 0], E[k1 + k2, 0], m2, n2, n1 + n2


def _select(a, amin, d_max, d_min):
    """Mask of the candidates a search keeps: d <= d_max, or d >= d_min
    when d_max is None, with d = |Omega| / min |w|.  Without ``amin`` the
    ceiling is 0, which keeps |Omega| == 0."""
    if amin is None:
        return a == 0
    d = a / amin
    return (d <= d_max) if d_max is not None else (d >= d_min)


def _search(spec, domain, rule, *, patterns, d_max=None, d_min=None,
            skip_equal_n_pairs=True) -> TriadColumns:
    """The closure's candidates with d_ratio <= d_max or d_ratio >= d_min,
    as columns in scan order, decided and built on one table.  The scan's
    test is d_max, or tau = 0 for a zero ceiling (the exact search)."""
    X = _table(spec, domain.truncation)
    test = (patterns, 0 if d_max == 0 else math.inf, 0, d_max)
    kept = [[np.zeros(0, np.int64)] * 5]  # the candidates each block keeps
    for cand, a, amin in _scan(X, domain, rule, skip_equal_n_pairs, test):
        keep = _select(a, amin, d_max, d_min)
        if np.count_nonzero(keep):  # cheaper than keep.any() per block
            kept.append([c[keep] for c in cand])
        del cand, a, amin, keep  # before the next block is built
    cand = list(map(np.concatenate, zip(*kept)))
    del kept  # the blocks' shares go before the build
    return _build(X, patterns, cand)


def _least_nonzero(domain, rule, X) -> Triad | None:
    """Triad with the least finite nonzero |Omega| under the closure's
    bound patterns; the first minimum in scan order wins, and a candidate
    whose |Omega| is inf or NaN (an overflowing grid) is skipped.  On the
    exact path the scan reads each pair's n3 next to the real root, where
    its least nonzero |Omega| lies.  Zeros are N == 0 on the exact path,
    and d_ratio at or below the numerically-exact cutoff on floats
    (rational-valued dispersions leave ~1e-17 rounding residue on exact
    resonances).  The float |Omega| are those of the triads (floats) or
    correctly rounded (exact path), so, rounding being monotone, the least
    |Omega| is among those at the least float |Omega|, built once on X
    after the scan and compared exactly."""
    low, ties = math.inf, []
    for cand, a, amin in _scan(X, domain, rule, True,
                               (rule.bound_patterns, 0, 1, None)):
        a[_select(a, amin, NUMERIC_EXACT_D, None) | np.isnan(a)] = math.inf
        least = float(a.min())  # blocks are never empty
        if least < low:
            low, ties = least, []
        if least == low < math.inf:
            ties.append([c[a == low] for c in cand])
        del cand, a, amin  # before the next block is built
    if not ties:
        return None
    tied = _build(X, rule.bound_patterns, [*map(np.concatenate, zip(*ties))])
    return tied.triads()[int(np.argmin(np.abs(tied.discrepancy)))]


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _dispatch(spec: DispersionSpec, domain: SpectralDomain,
              closure: str = "auto", patterns: str = "sum") -> _Closure:
    """Resolve ``closure`` for ``spec`` and check it against ``patterns``,
    the domain's shape and the number system: the exact path of rational
    dispersions serves zonal closure only.  ``auto`` picks zonal closure
    on the sphere and component-wise closure elsewhere; box closure is
    never chosen automatically."""
    if patterns not in ("sum", "all"):
        raise UsageError(f"unknown sign patterns {patterns!r}; "
                         "expected 'sum' or 'all'")
    if closure == "auto":
        closure = "zonal" if spec.kind == "rossby_sphere" else "both"
    if closure not in CLOSURES:
        raise UsageError(f"unknown closure convention {closure!r}")
    rule = CLOSURES[closure]
    if spec.exactness and not rule.exact:
        raise UsageError(f"the exact path of {spec.kind} supports zonal "
                         f"closure only, not {rule.name!r}")
    if domain.shape not in rule.shapes:
        raise UsageError(f"{rule.name} closure expects a "
                         f"{' or '.join(rule.shapes)} domain")
    return rule


# ---------------------------------------------------------------------------
# public searches
# ---------------------------------------------------------------------------

def find_exact_triads(spec: DispersionSpec, domain: SpectralDomain,
                      skip_equal_n_pairs: bool = True) -> list:
    """All triads with Omega = 0 exactly under the sum interaction
    (w1 + w2 = w3, zonal closure m1 + m2 = m3).

    Only valid on exact rational dispersions.  Pairs with n1 = n2 are
    skipped by default: on the sphere they generate the same-latitude
    families (m1,n)+(m2,n) -> (m1+m2,n) that are identically resonant but
    carry zero interaction coupling.
    """
    if not spec.exactness:
        raise UsageError(
            "find_exact_triads requires an exact rational dispersion; "
            "use find_near_triads with a threshold for floating dispersions")
    return _search(spec, domain, _dispatch(spec, domain), patterns="sum",
                   d_max=0, skip_equal_n_pairs=skip_equal_n_pairs).triads()


def _sorted_search(spec, domain, patterns="sum", closure="auto", *,
                   d_max=None, d_min=None, skip_equal_n_pairs=True):
    """The triads of :func:`find_near_triads` (``d_max``) or of
    :func:`find_max_discrepancy_triads` (``d_min``) as columns, by a stable
    argsort of d or of -d, which keeps equal d in scan order.  The columns
    are sorted one at a time, each source let go once its copy is made."""
    if d_min is None:
        _check_threshold("d_max", d_max, ceiling=True)
    else:
        _check_threshold("d_min", d_min)
    *columns, table = vars(_search(spec, domain, _dispatch(
        spec, domain, closure, patterns), patterns=patterns, d_max=d_max,
        d_min=d_min, skip_equal_n_pairs=skip_equal_n_pairs)).values()
    order = np.argsort(columns[-1] if d_min is None else -columns[-1],
                       kind="stable")  # columns[-1] is d_ratio
    return TriadColumns(*(columns.pop(0)[order] for _ in range(len(columns))),
                        table)


def find_near_triads(spec: DispersionSpec, domain: SpectralDomain,
                     d_max: float, patterns: str = "sum",
                     closure: str = "auto",
                     skip_equal_n_pairs: bool = True) -> list:
    """All vector-closed triads with d_ratio <= d_max, sorted by d_ratio
    ascending then lexicographically.  ``d_max = inf`` keeps every closed
    triad; a NaN d_max is rejected."""
    return _sorted_search(spec, domain, patterns, closure, d_max=d_max,
                          skip_equal_n_pairs=skip_equal_n_pairs).triads()


def find_max_discrepancy_triads(spec: DispersionSpec, domain: SpectralDomain,
                                d_min: float, patterns: str = "sum",
                                closure: str = "auto") -> list:
    """All vector-closed triads with d_ratio >= d_min, sorted by d_ratio
    descending; the head attains the domain maximum."""
    return _sorted_search(spec, domain, patterns, closure,
                          d_min=d_min).triads()


# ---------------------------------------------------------------------------
# discrepancy lower bounds
# ---------------------------------------------------------------------------

def discrepancy_lower_bound(spec: DispersionSpec, domain: SpectralDomain,
                            closure: str = "auto") -> BoundReport:
    """Lower bounds on the nonzero frequency discrepancy over a domain.

    Exact rational specs get the a-priori bound 1/(b*d) with b = d = the
    least common multiple of all reduced frequency denominators (any nonzero
    Omega is an integer multiple of 1/lcm, so 1/lcm^2 <= 1/lcm <= |Omega|),
    plus the finite-domain minimum with its witness triad.  Float specs get
    the finite-domain minimum only.  The witness is the first triad of
    least |Omega| in scan order, under the closure's bound patterns.
    """
    rule = _dispatch(spec, domain, closure)
    X = _table(spec, domain.truncation)

    apriori = None
    if spec.exactness:
        m, n = domain.mode_arrays()  # -2m/a over a / gcd(2m, a)
        lcm = math.lcm(*(X[m, n] // np.gcd(2 * m, X[m, n])).tolist())
        apriori = DiscrepancyBound(Fraction(1, lcm * lcm), "rational_1_over_bd")
    best = _least_nonzero(domain, rule, X)

    if best is None:
        return BoundReport(apriori, None,
                           note="no vector-closed triad with nonzero "
                                "discrepancy in this domain")
    finite = DiscrepancyBound(abs(best.discrepancy), "finite_domain_min",
                              witness=best)
    return BoundReport(apriori, finite)
