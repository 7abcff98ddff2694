"""Exhaustive enumeration of exact and approximate resonant triads.

Three vector-closure conventions are supported:

``both``
    Component-wise closure m1+m2 = m3 and n1+n2 = n3.  Used for square,
    rectangular and plane dispersions.
``zonal``
    Closure in the zonal wavenumber only, m1+m2 = m3 with n3 free.  Used
    for the spherical dispersion, whose derived exact triad
    (4,12)+(5,14) -> (9,13) closes in m but not in n.
``box``
    Independent +/- per component, the selection rule of cosine basin
    modes; square domains only.

``closure="auto"`` picks ``zonal`` for ``rossby_sphere`` and ``both``
otherwise; ``box`` is never chosen automatically.

Searches iterate over ordered pairs (k1 < k2 lexicographically) and derive
the third vector from closure, so outputs are duplicate-free.  Every scan is
a numpy kernel that takes one k1 row at a time and builds a :class:`Triad`
only for the candidates it emits:

* The float kernels (``both``, ``zonal`` and ``box`` closure) evaluate the
  residuals on the omega grid with the float64 expressions of the scalar
  sign-pattern rule, so each accept/reject decision is the one a scalar
  loop over the same grid would make.  Emitted triads are rebuilt from
  scalar ``eval_frequency`` values, except in the approximate-resonance
  pass, which keeps the grid values.
* The exact kernel (spherical dispersion, zonal closure) writes
  omega = -2m/a with a = n(n+1), so each sign pattern's residual is
  -2 N / (a1 a2 a3) with the integer
  N = s1 m1 a2 a3 + s2 m2 a1 a3 + s3 m3 a1 a2, computed in int64 (in Python
  integers where |N| could exceed the int64 range).  Omega = 0 is decided
  by N == 0, never by a tolerance.  The d_ratio and |Omega| thresholds get
  a float prefilter widened by a margin far above its rounding error, and
  the survivors are re-checked on exact ``Fraction`` residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

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
from .errors import DomainError, UsageError

#: Sign patterns, up to an overall sign: which slot carries the minus.
SIGN_PATTERNS = ((1, 1, -1), (1, -1, 1), (-1, 1, 1))

#: d_ratio at or below which a floating-point triad is reported as
#: "numerically exact".  True zeros are only decidable on the rational path.
NUMERIC_EXACT_D = 1e-12


@dataclass(frozen=True)
class Triad:
    """A vector-closed triad with its frequencies and discrepancy.

    ``omegas`` are angular frequencies (exact rationals on the spherical
    path, floats otherwise); ``discrepancy`` is the signed residual
    s1*w1 + s2*w2 + s3*w3 for the stored sign pattern; ``d_ratio`` is
    |discrepancy| / min(|w1|, |w2|, |w3|), always a float.
    """

    k1: WaveVector
    k2: WaveVector
    k3: WaveVector
    omegas: tuple
    discrepancy: OmegaValue
    d_ratio: float
    signs: tuple = (1, 1, -1)

    @property
    def is_exact(self) -> bool:
        """Exact resonance: rational zero, or d_ratio <= 1e-12 on floats
        ("numerically exact")."""
        if isinstance(self.discrepancy, Fraction):
            return self.discrepancy == 0
        return self.d_ratio <= NUMERIC_EXACT_D

    @property
    def resonance_label(self) -> str:
        if isinstance(self.discrepancy, Fraction):
            return "exact" if self.discrepancy == 0 else "near"
        return "numerically_exact" if self.d_ratio <= NUMERIC_EXACT_D else "near"

    def members(self) -> tuple:
        return (self.k1, self.k2, self.k3)

    def key(self) -> tuple:
        return (self.k1, self.k2, self.k3)

    def __str__(self) -> str:
        return f"{self.k1}{self.k2}{self.k3}"


@dataclass(frozen=True)
class DiscrepancyBound:
    """A positive lower bound on nonzero |Omega| over a domain."""

    value: OmegaValue
    method: str  # rational_1_over_bd | finite_domain_min
    witness: Triad | None = None


@dataclass(frozen=True)
class BoundReport:
    """Result of discrepancy_lower_bound: the a-priori rational bound where
    available, and the finite-domain minimum with witness.  ``finite_min``
    is None when the domain has no vector-closed triad at all (the bound is
    undefined over an empty set, never zero)."""

    apriori: DiscrepancyBound | None
    finite_min: DiscrepancyBound | None
    note: str = ""


def resolve_closure(spec: DispersionSpec, closure: str = "auto") -> str:
    """``auto`` picks zonal on the sphere and component-wise closure
    elsewhere.  ``box`` (independent +/- per component, the selection rule
    of cosine basin modes) is never chosen automatically."""
    if closure == "auto":
        return "zonal" if spec.kind == "rossby_sphere" else "both"
    if closure not in ("both", "zonal", "box"):
        raise UsageError(f"unknown closure convention {closure!r}")
    return closure


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


def _d_ratio(om: OmegaValue, ws: Iterable) -> float:
    denom = min(abs(float(w)) for w in ws)
    return abs(float(om)) / denom


def _min_pattern(ws):
    """Signed residual and signs of the minimal-|Omega| sign pattern."""
    best = None
    for signs in SIGN_PATTERNS:
        om = signs[0] * ws[0] + signs[1] * ws[1] + signs[2] * ws[2]
        if best is None or abs(om) < abs(best[0]):
            best = (om, signs)
    return best


def _check_threshold(name: str, value, ceiling: bool = False) -> None:
    """Reject a search threshold that is NaN, not positive or infinite.

    A NaN compares false against everything, so it would silently select
    no triad, and so would an infinite floor.  Only a ``ceiling`` may be
    infinite: ``d_max = inf`` keeps every closed triad."""
    if math.isnan(value) or value <= 0:
        raise UsageError(f"{name} must be positive, got {value!r}")
    if math.isinf(value) and not ceiling:
        raise UsageError(f"{name} must be finite, got {value!r}")


class _FrequencyMemo(dict):
    """Scalar frequencies by mode, evaluated on first lookup.

    One ``eval_frequency`` call per distinct mode looked up, and only for
    those: a search fills it from its hits, never from the whole domain.
    The values are the scalar function's own, so stored frequencies
    reproduce bit for bit on re-evaluation."""

    def __init__(self, spec: DispersionSpec):
        super().__init__()
        self.spec = spec

    def __missing__(self, k: WaveVector) -> OmegaValue:
        w = self[k] = eval_frequency(self.spec, k).omega
        return w


class _GridFrequencies:
    """Frequencies read from an omega grid, for searches that skip the
    scalar rebuild."""

    def __init__(self, W):
        self.W = W

    def __getitem__(self, k: WaveVector) -> float:
        return float(self.W[k.m, k.n])


def _best_pattern_triad(freqs, k1, k2, k3, patterns) -> Triad:
    """Rebuild a candidate triad, choosing the minimal-|Omega| sign pattern
    when patterns="all".

    ``freqs`` maps a mode to its frequency.  On the scalar rebuild it is a
    per-search :class:`_FrequencyMemo`, so each distinct mode costs one
    scalar ``eval_frequency`` call however many hits it takes part in;
    otherwise it reads the search's omega grid."""
    ws = (freqs[k1], freqs[k2], freqs[k3])
    if patterns == "sum":
        om, signs = ws[0] + ws[1] - ws[2], (1, 1, -1)
    else:
        om, signs = _min_pattern(ws)
    return Triad(k1, k2, k3, ws, om, _d_ratio(om, ws), signs)


# ---------------------------------------------------------------------------
# exact kernel (spherical dispersion, zonal closure)
# ---------------------------------------------------------------------------

#: Largest |N| the int64 kernel may meet.  Every term of N is at most
#: T (T(T+1))^2, so |N| <= 3 T (T(T+1))^2; beyond this (T near 5,000) the
#: kernel computes N in Python integers instead.
_N_INT64_LIMIT = int(np.iinfo(np.int64).max)

#: Relative widening of the float prefilters of the exact path.  The float
#: |Omega| and d_ratio of the kernel, and the d_ratio a Triad stores, each
#: lie within a few ulps (~1e-15) of the exact values, so a prefilter
#: widened by 1e-9 keeps every candidate the exact predicate accepts.
_PREFILTER_MARGIN = 1e-9


def _exact_rows(domain: SpectralDomain, patterns: str,
                skip_equal_n_pairs: bool) -> Iterator[tuple]:
    """Zonally closed candidates of the exact path, one k1 row at a time.

    The candidates are the ordered pairs k1 < k2 (lexicographic) with
    m3 = m1 + m2 <= T, each with every n3 of the domain, in (k1, k2, n3)
    order; pairs with n1 = n2 are left out with ``skip_equal_n_pairs``.
    Yields (k1, m2, n2, n3, N, om, amin) per row: the int arrays of k2 and
    n3, |N| of the sum pattern (or the least |N| over the sign patterns
    when patterns="all": all patterns share the denominator a1 a2 a3, so
    it belongs to the minimal-|Omega| pattern), and the float |Omega| and
    min |w| for the prefilters.
    """
    T = domain.truncation
    triangular = domain.shape == "triangular"
    python_ints = 3 * T * (T * (T + 1)) ** 2 > _N_INT64_LIMIT
    modes = list(domain.modes())
    mm = np.array([k.m for k in modes], dtype=np.int64)
    nn = np.array([k.n for k in modes], dtype=np.int64)
    for i, k1 in enumerate(modes):
        m1, n1 = k1
        keep = mm[i + 1:] <= T - m1
        if skip_equal_n_pairs:
            keep &= nn[i + 1:] != n1
        m2, n2 = mm[i + 1:][keep], nn[i + 1:][keep]
        if not m2.size:
            continue
        # Each pair takes n3 from n_lo to T: a ragged block per pair.
        n_lo = m1 + m2 if triangular else np.ones_like(m2)
        counts = T + 1 - n_lo
        pair = np.repeat(np.arange(m2.size), counts)
        n3 = np.arange(pair.size) - np.repeat(np.cumsum(counts) - counts - n_lo,
                                              counts)
        m2, n2 = m2[pair], n2[pair]
        m3 = m1 + m2
        a1, a2, a3 = n1 * (n1 + 1), n2 * (n2 + 1), n3 * (n3 + 1)
        im2, im3, ia2, ia3 = ((x.astype(object) if python_ints else x)
                              for x in (m2, m3, a2, a3))
        t1, t2, t3 = m1 * ia2 * ia3, im2 * a1 * ia3, im3 * a1 * ia2
        N = np.abs(t1 + t2 - t3)
        if patterns == "all":
            N = np.minimum(np.minimum(N, np.abs(t1 - t2 + t3)),
                           np.abs(t2 + t3 - t1))
        a2f, a3f = a2.astype(np.float64), a3.astype(np.float64)
        om = 2.0 * N.astype(np.float64) / (a1 * a2f * a3f)
        amin = 2.0 * np.minimum(np.minimum(m2 / a2f, m3 / a3f), m1 / a1)
        yield k1, m2, n2, n3, N, om, amin


def _search_exact(spec, domain, *, d_max=None, d_min=None, abs_max=None,
                  patterns="sum", skip_equal_n_pairs=True) -> list:
    """Exact-path search in (k1, k2, n3) order.

    Exactly one threshold is given: d_ratio <= d_max (``d_max = 0`` keeps
    the exact resonances, N == 0), d_ratio >= d_min, or
    0 < |Omega| <= abs_max.  A float prefilter with a conservative margin
    selects the survivors; each is rebuilt on exact Fractions and kept
    only if it passes the threshold exactly."""
    hi, lo = 1.0 + _PREFILTER_MARGIN, 1.0 - _PREFILTER_MARGIN
    if abs_max is not None:
        exact_max = Fraction(abs_max)  # compares as the float itself does
    freqs = _FrequencyMemo(spec)
    triads = []
    for k1, m2, n2, n3, N, om, amin in _exact_rows(domain, patterns,
                                                   skip_equal_n_pairs):
        if d_max == 0:
            keep = N == 0
        elif d_max is not None:
            keep = om / amin <= d_max * hi
        elif d_min is not None:
            keep = om / amin >= d_min * lo
        else:
            keep = (N != 0) & (om <= abs_max * hi)
        for m, n, nw in zip(m2[keep].tolist(), n2[keep].tolist(),
                            n3[keep].tolist()):
            t = _best_pattern_triad(freqs, k1, WaveVector(m, n),
                                    WaveVector(k1.m + m, nw), patterns)
            if d_max is not None:
                ok = t.d_ratio <= d_max
            elif d_min is not None:
                ok = t.d_ratio >= d_min
            else:
                ok = t.discrepancy != 0 and abs(t.discrepancy) <= exact_max
            if ok:
                triads.append(t)
    return triads


def _exact_min_nonzero(spec, domain) -> Triad | None:
    """Sum-pattern triad with the least nonzero |Omega| on the exact path;
    the first minimum in (k1, k2, n3) order wins.  Per row, only the
    candidates whose float |Omega| lies within the prefilter margin of the
    row minimum and of the best so far are compared exactly."""
    hi = 1.0 + _PREFILTER_MARGIN
    freqs = _FrequencyMemo(spec)
    best, best_f = None, math.inf
    for k1, m2, n2, n3, N, om, _ in _exact_rows(domain, "sum", True):
        om[N == 0] = math.inf
        row_min = float(om.min())
        if row_min == math.inf or row_min > best_f * hi:
            continue
        close = om <= min(row_min, best_f) * hi
        for m, n, nw in zip(m2[close].tolist(), n2[close].tolist(),
                            n3[close].tolist()):
            t = _best_pattern_triad(freqs, k1, WaveVector(m, n),
                                    WaveVector(k1.m + m, nw), "sum")
            if best is None or abs(t.discrepancy) < abs(best.discrepancy):
                best, best_f = t, float(abs(t.discrepancy))
    return best


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
    out = _search_exact(spec, domain, d_max=0, patterns="sum",
                        skip_equal_n_pairs=skip_equal_n_pairs)
    out.sort(key=lambda t: t.key())
    return out


# ---------------------------------------------------------------------------
# float kernels
# ---------------------------------------------------------------------------

def _abs_residual(w1, w2, w3, patterns):
    """|Omega| of the sum pattern, or the least |Omega| over the sign
    patterns, in the float64 expressions of :func:`_min_pattern`."""
    if patterns == "sum":
        return np.abs(w1 + w2 - w3)
    p1 = np.abs(w1 + w2 - w3)
    p2 = np.abs(w1 - w2 + w3)
    p3 = np.abs(-w1 + w2 + w3)
    return np.minimum(np.minimum(p1, p2), p3)


def _min_abs(w1, w2, w3):
    return np.minimum(np.minimum(np.abs(w2), np.abs(w3)), abs(w1))


def _select(abs_om, w1, w2, w3, d_max, d_min, abs_max):
    """Mask of the candidates a float search keeps.  Exactly one of
    d_max / d_min / abs_max is not None: d <= d_max, d >= d_min, or
    0 < |Omega| <= abs_max, with d = |Omega| / min |w|."""
    if abs_max is not None:
        return (abs_om <= abs_max) & (abs_om > 0)
    d = abs_om / _min_abs(w1, w2, w3)
    return (d <= d_max) if d_max is not None else (d >= d_min)


def _grid_block_rows(T: int, m1: int, n1: int):
    """Index windows of the k2 block for a fixed k1 = (m1, n1) under the
    lexicographic dedup k1 <= k2: full rows m2 > m1, plus the partial row
    m2 = m1 with n2 >= n1."""
    m2_max = T - m1
    n2_max = T - n1
    if m2_max < 1 or n2_max < 1:
        return
    if m1 <= m2_max:
        yield m1, m1, n1, n2_max            # partial row, n2 in [n1, n2_max]
        if m1 + 1 <= m2_max:
            yield m1 + 1, m2_max, 1, n2_max  # full rows


def _search_both_closure(spec, domain, *, d_max=None, d_min=None,
                         abs_max=None, patterns="sum", scalar_rebuild=True):
    """Float search over component-wise closed triads; returns Triads
    (unsorted).

    With ``scalar_rebuild`` the output triads are rebuilt from scalar
    dispersion evaluation so stored frequencies reproduce bit-for-bit on
    re-evaluation; without it they carry the grid values (used by the
    classifier, which only thresholds on |Omega|).
    """
    T = domain.truncation
    if domain.shape != "square":
        raise UsageError("component-wise closure expects a square domain")
    W = omega_grid(spec, T)
    freqs = _FrequencyMemo(spec) if scalar_rebuild else _GridFrequencies(W)
    triads = []
    for m1 in range(1, T):
        for n1 in range(1, T):
            w1 = W[m1, n1]
            for m2_lo, m2_hi, n2_lo, n2_hi in _grid_block_rows(T, m1, n1):
                W2 = W[m2_lo:m2_hi + 1, n2_lo:n2_hi + 1]
                W3 = W[m1 + m2_lo:m1 + m2_hi + 1, n1 + n2_lo:n1 + n2_hi + 1]
                keep = _select(_abs_residual(w1, W2, W3, patterns),
                               w1, W2, W3, d_max, d_min, abs_max)
                if not keep.any():
                    continue
                k1 = WaveVector(m1, n1)
                i2, j2 = np.nonzero(keep)
                for m2, n2 in zip((i2 + m2_lo).tolist(), (j2 + n2_lo).tolist()):
                    triads.append(_best_pattern_triad(
                        freqs, k1, WaveVector(m2, n2),
                        WaveVector(m1 + m2, n1 + n2), patterns))
    return triads


def _search_zonal_float(spec, domain, *, d_max=None, d_min=None,
                        abs_max=None, patterns="sum",
                        skip_equal_n_pairs=True, scalar_rebuild=True):
    """Float search over zonally closed triads (free n3)."""
    T = domain.truncation
    triangular = domain.shape == "triangular"
    W = omega_grid(spec, T)
    freqs = _FrequencyMemo(spec) if scalar_rebuild else _GridFrequencies(W)
    triads = []
    for m1 in range(1, T):
        n1_lo = m1 if triangular else 1
        for n1 in range(n1_lo, T + 1):
            w1 = W[m1, n1]
            for m2 in range(m1, T - m1 + 1):
                m3 = m1 + m2
                if m2 == m1:
                    n2_lo = n1
                else:
                    n2_lo = m2 if triangular else 1
                n3_lo = m3 if triangular else 1
                if n2_lo > T or n3_lo > T:
                    continue
                w2 = W[m2, n2_lo:T + 1][:, None]            # n2 axis
                w3 = W[m3, n3_lo:T + 1][None, :]            # n3 axis
                mask = _select(_abs_residual(w1, w2, w3, patterns),
                               w1, w2, w3, d_max, d_min, abs_max)
                if skip_equal_n_pairs:
                    # exclude candidate pairs with n1 == n2
                    idx = n1 - n2_lo
                    if 0 <= idx < mask.shape[0]:
                        mask[idx, :] = False
                if mask.any():
                    i2, j3 = np.nonzero(mask)
                    k1 = WaveVector(m1, n1)
                    for i, j in zip(i2.tolist(), j3.tolist()):
                        k2 = WaveVector(m2, n2_lo + i)
                        k3 = WaveVector(m3, n3_lo + j)
                        triads.append(_best_pattern_triad(
                            freqs, k1, k2, k3, patterns))
    return triads


def box_completions(k1: WaveVector, k2: WaveVector, T: int):
    """Wave vectors closing (k1, k2) under independent component-wise +/-:
    m3 = m1 +/- m2 and n3 = n1 -/+ n2 in any combination, in ascending
    (m3, n3) order (|a - b| < a + b for positive components)."""
    for m3 in (abs(k1.m - k2.m), k1.m + k2.m):
        if not 1 <= m3 <= T:
            continue
        for n3 in (abs(k1.n - k2.n), k1.n + k2.n):
            if 1 <= n3 <= T:
                yield WaveVector(m3, n3)


def _box_rows(T: int) -> Iterator[tuple]:
    """Box-closed candidates on a square domain, one k1 row at a time, in
    (k1, k2, k3) order with k3 in :func:`box_completions` order.

    Each unordered triple regenerates from any of its three pairs, so a
    candidate is emitted only from its two lexicographically smallest
    members: k1 < k2 < k3.  As k2 follows k1, m2 >= m1 and a completion
    with m3 = |m1 - m2| < m2 precedes k2; only m3 = m1 + m2 <= T remains,
    with n3 = |n1 - n2| then n1 + n2.  Yields (m1, n1, m2, n2, n3).
    """
    m_all = np.repeat(np.arange(1, T + 1), T)
    n_all = np.tile(np.arange(1, T + 1), T)
    for i in range(T * T):
        m1, n1 = i // T + 1, i % T + 1
        stop = (T - m1) * T  # modes with m2 <= T - m1
        if stop <= i + 1:
            break
        n2 = n_all[i + 1:stop]
        n3 = np.stack((np.abs(n1 - n2), n1 + n2), axis=1).ravel()
        keep = (n3 >= 1) & (n3 <= T)
        yield (m1, n1, np.repeat(m_all[i + 1:stop], 2)[keep],
               np.repeat(n2, 2)[keep], n3[keep])


def _search_box_float(spec, domain, *, d_max=None, d_min=None, abs_max=None,
                      patterns="all", scalar_rebuild=True):
    """Float search over box-closed triads on a square domain."""
    T = domain.truncation
    if domain.shape != "square":
        raise UsageError("box closure expects a square domain")
    W = omega_grid(spec, T)
    freqs = _FrequencyMemo(spec) if scalar_rebuild else _GridFrequencies(W)
    triads = []
    for m1, n1, m2, n2, n3 in _box_rows(T):
        w1, w2, w3 = W[m1, n1], W[m2, n2], W[m1 + m2, n3]
        keep = _select(_abs_residual(w1, w2, w3, patterns),
                       w1, w2, w3, d_max, d_min, abs_max)
        k1 = WaveVector(m1, n1)
        for m, n, nw in zip(m2[keep].tolist(), n2[keep].tolist(),
                            n3[keep].tolist()):
            triads.append(_best_pattern_triad(
                freqs, k1, WaveVector(m, n), WaveVector(m1 + m, nw), patterns))
    return triads


def _box_min_nonzero(spec, domain) -> Triad | None:
    """Box-closed triad with the least nonzero |Omega| over the sign
    patterns; the first minimum in (k1, k2, k3) order wins.

    The kernel runs on a table of scalar ``eval_frequency`` values, so the
    minimum and the witness are those of the scalar frequencies."""
    T = domain.truncation
    if domain.shape != "square":
        raise UsageError("box closure expects a square domain")
    S = np.full((T + 1, T + 1), np.nan)
    for k in domain.modes():
        S[k] = eval_frequency(spec, k).omega
    best, best_a = None, math.inf
    for m1, n1, m2, n2, n3 in _box_rows(T):
        if not n3.size:
            continue
        w1, w2, w3 = S[m1, n1], S[m2, n2], S[m1 + m2, n3]
        a = _abs_residual(w1, w2, w3, "all")
        a[a / _min_abs(w1, w2, w3) <= NUMERIC_EXACT_D] = math.inf
        i = int(np.argmin(a))
        if a[i] < best_a:
            best_a = a[i]
            best = (m1, n1, int(m2[i]), int(n2[i]), int(n3[i]))
    if best is None:
        return None
    m1, n1, m2, n2, n3 = best
    return _best_pattern_triad(_GridFrequencies(S), WaveVector(m1, n1),
                               WaveVector(m2, n2), WaveVector(m1 + m2, n3),
                               "all")


# ---------------------------------------------------------------------------
# public searches
# ---------------------------------------------------------------------------

def _near_sort_key(t: Triad):
    return (t.d_ratio, t.k1, t.k2, t.k3)


def find_near_triads(spec: DispersionSpec, domain: SpectralDomain,
                     d_max: float, patterns: str = "sum",
                     closure: str = "auto",
                     skip_equal_n_pairs: bool = True) -> list:
    """All vector-closed triads with d_ratio <= d_max, sorted by d_ratio
    ascending then lexicographically.  ``d_max = inf`` keeps every closed
    triad; a NaN d_max is rejected."""
    _check_threshold("d_max", d_max, ceiling=True)
    conv = resolve_closure(spec, closure)
    if spec.exactness:
        triads = _search_exact(spec, domain, d_max=d_max, patterns=patterns,
                               skip_equal_n_pairs=skip_equal_n_pairs)
    elif conv == "zonal":
        triads = _search_zonal_float(spec, domain, d_max=d_max,
                                     patterns=patterns,
                                     skip_equal_n_pairs=skip_equal_n_pairs)
    elif conv == "box":
        triads = _search_box_float(spec, domain, d_max=d_max, patterns=patterns)
    else:
        triads = _search_both_closure(spec, domain, d_max=d_max,
                                      patterns=patterns)
    triads.sort(key=_near_sort_key)
    return triads


def find_max_discrepancy_triads(spec: DispersionSpec, domain: SpectralDomain,
                                d_min: float, patterns: str = "sum",
                                closure: str = "auto") -> list:
    """All vector-closed triads with d_ratio >= d_min, sorted by d_ratio
    descending; the head attains the domain maximum."""
    _check_threshold("d_min", d_min)
    conv = resolve_closure(spec, closure)
    if spec.exactness:
        triads = _search_exact(spec, domain, d_min=d_min, patterns=patterns)
    elif conv == "zonal":
        triads = _search_zonal_float(spec, domain, d_min=d_min,
                                     patterns=patterns)
    elif conv == "box":
        triads = _search_box_float(spec, domain, d_min=d_min, patterns=patterns)
    else:
        triads = _search_both_closure(spec, domain, d_min=d_min,
                                      patterns=patterns)
    triads.sort(key=lambda t: (-t.d_ratio, t.k1, t.k2, t.k3))
    return triads


def iter_ari_triads(spec: DispersionSpec, domain: SpectralDomain,
                    omega_max, patterns: str = "sum", closure: str = "auto",
                    skip_equal_n_pairs: bool = True) -> Iterator[Triad]:
    """Vector-closed triads with 0 < |Omega| <= omega_max (approximate
    resonant interactions).  The absolute threshold is in frequency units,
    unlike the dimensionless d_ratio filters."""
    _check_threshold("omega_max", omega_max)
    conv = resolve_closure(spec, closure)
    if spec.exactness:
        yield from _search_exact(spec, domain, abs_max=omega_max,
                                 patterns=patterns,
                                 skip_equal_n_pairs=skip_equal_n_pairs)
        return
    if conv == "zonal":
        yield from _search_zonal_float(spec, domain, abs_max=float(omega_max),
                                       patterns=patterns,
                                       skip_equal_n_pairs=skip_equal_n_pairs,
                                       scalar_rebuild=False)
        return
    if conv == "box":
        yield from _search_box_float(spec, domain, abs_max=float(omega_max),
                                     patterns=patterns, scalar_rebuild=False)
        return
    yield from _search_both_closure(spec, domain, abs_max=float(omega_max),
                                    patterns=patterns, scalar_rebuild=False)


# ---------------------------------------------------------------------------
# discrepancy lower bounds
# ---------------------------------------------------------------------------

def _lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)


def discrepancy_lower_bound(spec: DispersionSpec, domain: SpectralDomain,
                            closure: str = "auto") -> BoundReport:
    """Lower bounds on the nonzero frequency discrepancy over a domain.

    Exact rational specs get the a-priori bound 1/(b*d) with b = d = the
    least common multiple of all reduced frequency denominators (any nonzero
    Omega is an integer multiple of 1/lcm, so 1/lcm^2 <= 1/lcm <= |Omega|),
    plus the finite-domain minimum with its witness triad.  Float specs get
    the finite-domain minimum only.  On the exact path and under box
    closure the witness is the first triad of least |Omega| in
    (k1, k2, k3) order.
    """
    if len(domain) == 0:
        raise DomainError("domain is empty")
    conv = resolve_closure(spec, closure)

    apriori = None
    if spec.exactness:
        lcm = 1
        for k in domain.modes():
            lcm = _lcm(lcm, eval_frequency(spec, k).omega.denominator)
        apriori = DiscrepancyBound(Fraction(1, lcm * lcm), "rational_1_over_bd")
        best = _exact_min_nonzero(spec, domain)
    elif conv == "box":
        best = _box_min_nonzero(spec, domain)
    else:
        best = _float_min_nonzero(spec, domain, conv)

    if best is None:
        return BoundReport(apriori, None,
                           note="no vector-closed triad with nonzero "
                                "discrepancy in this domain")
    finite = DiscrepancyBound(abs(best.discrepancy), "finite_domain_min",
                              witness=best)
    return BoundReport(apriori, finite)


def _float_min_nonzero(spec, domain, conv):
    """Minimal nonzero |Omega| over closed triads, float path, ``both`` or
    ``zonal`` closure.

    "Nonzero" on the float path means d_ratio above the numerically-exact
    cutoff: rational-valued dispersions leave ~1e-17 rounding residue on
    exactly resonant triads, which must not masquerade as the bound.  The
    grid scan nominates near-minimal candidates; scalar re-evaluation picks
    the true argmin so the reported bound matches emitted triads
    bit-for-bit.
    """
    T = domain.truncation
    W = omega_grid(spec, T)
    best_val = math.inf
    cands = []
    if conv == "both":
        for m1 in range(1, T):
            for n1 in range(1, T):
                w1 = W[m1, n1]
                for m2_lo, m2_hi, n2_lo, n2_hi in _grid_block_rows(T, m1, n1):
                    W2 = W[m2_lo:m2_hi + 1, n2_lo:n2_hi + 1]
                    W3 = W[m1 + m2_lo:m1 + m2_hi + 1,
                           n1 + n2_lo:n1 + n2_hi + 1]
                    if W2.size == 0:
                        continue
                    abs_om = np.abs(w1 + W2 - W3)
                    amin = np.minimum(np.minimum(np.abs(W2), np.abs(W3)),
                                      abs(w1))
                    abs_om[abs_om <= NUMERIC_EXACT_D * amin] = np.inf
                    i, j = map(int, np.unravel_index(np.argmin(abs_om),
                                                     abs_om.shape))
                    v = abs_om[i, j]
                    if math.isfinite(v) and v <= best_val * (1 + 1e-9):
                        best_val = min(best_val, v)
                        cands.append((WaveVector(m1, n1),
                                      WaveVector(m2_lo + i, n2_lo + j)))
    else:
        triangular = domain.shape == "triangular"
        for m1 in range(1, T):
            n1_lo = m1 if triangular else 1
            for n1 in range(n1_lo, T + 1):
                w1 = W[m1, n1]
                for m2 in range(m1, T - m1 + 1):
                    if m2 == m1:
                        n2_lo = n1
                    else:
                        n2_lo = m2 if triangular else 1
                    n3_lo = m1 + m2 if triangular else 1
                    if n2_lo > T or n3_lo > T:
                        continue
                    w2_row = W[m2, n2_lo:T + 1]
                    w3_row = W[m1 + m2, n3_lo:T + 1]
                    om = (w1 + w2_row)[:, None] - w3_row[None, :]
                    if om.size == 0:
                        continue
                    abs_om = np.abs(om)
                    amin = np.minimum(np.abs(w2_row)[:, None],
                                      np.abs(w3_row)[None, :])
                    amin = np.minimum(amin, abs(w1))
                    abs_om[abs_om <= NUMERIC_EXACT_D * amin] = np.inf
                    idx = n1 - n2_lo
                    if 0 <= idx < abs_om.shape[0]:
                        abs_om[idx, :] = np.inf
                    i, j = map(int, np.unravel_index(np.argmin(abs_om),
                                                     abs_om.shape))
                    v = abs_om[i, j]
                    if math.isfinite(v) and v <= best_val * (1 + 1e-9):
                        best_val = min(best_val, v)
                        cands.append(((WaveVector(m1, n1),
                                       WaveVector(m2, n2_lo + i),
                                       WaveVector(m1 + m2, n3_lo + j))))
    if not cands:
        return None
    freqs = _FrequencyMemo(spec)
    best = None
    for c in cands:
        if conv == "both":
            k1, k2 = c
            k3 = WaveVector(k1.m + k2.m, k1.n + k2.n)
        else:
            k1, k2, k3 = c
        t = _best_pattern_triad(freqs, k1, k2, k3, "sum")
        if t.is_exact:
            continue
        if best is None or abs(t.discrepancy) < abs(best.discrepancy):
            best = t
    return best
