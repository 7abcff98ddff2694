"""Exhaustive enumeration of exact and approximate resonant triads.

Two vector-closure conventions are supported:

``both``
    Component-wise closure m1+m2 = m3 and n1+n2 = n3.  Used for square,
    rectangular and plane dispersions.
``zonal``
    Closure in the zonal wavenumber only, m1+m2 = m3 with n3 free.  Used
    for the spherical dispersion, whose derived exact triad
    (4,12)+(5,14) -> (9,13) closes in m but not in n.

``closure="auto"`` picks ``zonal`` for ``rossby_sphere`` and ``both``
otherwise.

Searches iterate over ordered pairs (k1 <= k2 lexicographically) and derive
the third vector from closure, so outputs are duplicate-free.  The float
path is vectorised with numpy and may be partitioned across worker threads;
partial results are merged and globally sorted, making the output
independent of the worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
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


# ---------------------------------------------------------------------------
# exact rational search (spherical dispersion)
# ---------------------------------------------------------------------------

def _sphere_exact_n3(m3: int, w_sum: Fraction) -> int | None:
    """Solve -2*m3 / (n3*(n3+1)) == w_sum for integer n3 >= 1, or None."""
    if w_sum >= 0:
        return None
    x = Fraction(-2 * m3) / w_sum  # n3*(n3+1) must equal x
    if x.denominator != 1:
        return None
    xi = x.numerator
    r = math.isqrt(4 * xi + 1)
    if r * r != 4 * xi + 1 or (r - 1) % 2:
        return None
    n3 = (r - 1) // 2
    return n3 if n3 >= 1 and n3 * (n3 + 1) == xi else None


def _iter_pairs(domain: SpectralDomain) -> Iterator[tuple]:
    """Ordered pairs k1 < k2 (lexicographic) of domain modes."""
    modes = list(domain.modes())
    for i, k1 in enumerate(modes):
        for k2 in modes[i + 1:]:
            yield k1, k2


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
    T = domain.truncation
    out = []
    freqs = {k: eval_frequency(spec, k).omega for k in domain.modes()}
    for k1, k2 in _iter_pairs(domain):
        if skip_equal_n_pairs and k1.n == k2.n:
            continue
        m3 = k1.m + k2.m
        if m3 > T:
            continue
        w_sum = freqs[k1] + freqs[k2]
        n3 = _sphere_exact_n3(m3, w_sum)
        if n3 is None:
            continue
        k3 = WaveVector(m3, n3)
        if k3 not in domain:
            continue
        out.append(_best_pattern_triad(freqs, k1, k2, k3, "sum"))
    out.sort(key=lambda t: t.key())
    return out


def _iter_sphere_candidates(spec, domain, skip_equal_n_pairs=True):
    """Yield (k1, k2, k3, w1, w2, w3, Omega) for every zonally closed
    candidate on the exact path, Omega = w1 + w2 - w3 as a Fraction."""
    T = domain.truncation
    freqs = {k: eval_frequency(spec, k).omega for k in domain.modes()}
    triangular = domain.shape == "triangular"
    for k1, k2 in _iter_pairs(domain):
        if skip_equal_n_pairs and k1.n == k2.n:
            continue
        m3 = k1.m + k2.m
        if m3 > T:
            continue
        w_sum = freqs[k1] + freqs[k2]
        n_lo = m3 if triangular else 1
        for n3 in range(n_lo, T + 1):
            k3 = WaveVector(m3, n3)
            w3 = freqs[k3]
            yield k1, k2, k3, freqs[k1], freqs[k2], w3, w_sum - w3


def _exact_candidate_triad(k1, k2, k3, ws, om_sum, patterns) -> Triad:
    if patterns == "all":
        om, signs = _min_pattern(ws)
        return Triad(k1, k2, k3, ws, om, _d_ratio(om, ws), signs)
    return Triad(k1, k2, k3, ws, om_sum, _d_ratio(om_sum, ws))


# ---------------------------------------------------------------------------
# vectorised float search, component-wise closure
# ---------------------------------------------------------------------------

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


def _search_rows_both(W, T, m1_values, d_max, d_min, abs_max, patterns):
    """Scan k1 rows; return candidate index arrays.

    Exactly one of d_max / d_min / abs_max is not None.  Returns a list of
    (m1, n1, m2_arr, n2_arr) hits.
    """
    hits = []
    for m1 in m1_values:
        for n1 in range(1, T):
            w1 = W[m1, n1]
            for m2_lo, m2_hi, n2_lo, n2_hi in _grid_block_rows(T, m1, n1):
                W2 = W[m2_lo:m2_hi + 1, n2_lo:n2_hi + 1]
                W3 = W[m1 + m2_lo:m1 + m2_hi + 1, n1 + n2_lo:n1 + n2_hi + 1]
                if patterns == "sum":
                    om = w1 + W2 - W3
                    abs_om = np.abs(om)
                else:
                    p1 = np.abs(w1 + W2 - W3)
                    p2 = np.abs(w1 - W2 + W3)
                    p3 = np.abs(-w1 + W2 + W3)
                    abs_om = np.minimum(np.minimum(p1, p2), p3)
                if abs_max is not None:
                    mask = (abs_om <= abs_max) & (abs_om > 0)
                else:
                    amin = np.minimum(np.abs(W2), np.abs(W3))
                    amin = np.minimum(amin, abs(w1))
                    d = abs_om / amin
                    mask = (d <= d_max) if d_max is not None else (d >= d_min)
                if mask.any():
                    i2, j2 = np.nonzero(mask)
                    hits.append((m1, n1, i2 + m2_lo, j2 + n2_lo))
    return hits


def _search_both_closure(spec, domain, *, d_max=None, d_min=None,
                         abs_max=None, patterns="sum", workers=1,
                         scalar_rebuild=True):
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
    m1_all = list(range(1, T))
    if workers <= 1 or len(m1_all) < 2:
        chunks = [m1_all]
    else:
        size = max(1, math.ceil(len(m1_all) / (workers * 4)))
        chunks = [m1_all[i:i + size] for i in range(0, len(m1_all), size)]

    def run(chunk):
        return _search_rows_both(W, T, chunk, d_max, d_min, abs_max, patterns)

    if workers <= 1:
        all_hits = [h for c in chunks for h in run(c)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(run, chunks))
        all_hits = [h for part in parts for h in part]

    freqs = _FrequencyMemo(spec) if scalar_rebuild else _GridFrequencies(W)
    triads = []
    for m1, n1, m2_arr, n2_arr in all_hits:
        k1 = WaveVector(m1, n1)
        for m2, n2 in zip(m2_arr.tolist(), n2_arr.tolist()):
            k2 = WaveVector(m2, n2)
            k3 = WaveVector(m1 + m2, n1 + n2)
            triads.append(_best_pattern_triad(freqs, k1, k2, k3, patterns))
    return triads


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
# float search, zonal closure (m only, free n3)
# ---------------------------------------------------------------------------

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
                w2_row = W[m2, n2_lo:T + 1]            # n2 axis
                w3_row = W[m3, n3_lo:T + 1]            # n3 axis
                if patterns == "sum":
                    om = (w1 + w2_row)[:, None] - w3_row[None, :]
                    abs_om = np.abs(om)
                else:
                    s12 = (w1 + w2_row)[:, None] - w3_row[None, :]
                    s1m2 = (w1 - w2_row)[:, None] + w3_row[None, :]
                    sm12 = (-w1 + w2_row)[:, None] + w3_row[None, :]
                    abs_om = np.minimum(np.minimum(np.abs(s12), np.abs(s1m2)),
                                        np.abs(sm12))
                if abs_max is not None:
                    mask = (abs_om <= abs_max) & (abs_om > 0)
                else:
                    amin = np.minimum(np.abs(w2_row)[:, None],
                                      np.abs(w3_row)[None, :])
                    amin = np.minimum(amin, abs(w1))
                    d = abs_om / amin
                    mask = (d <= d_max) if d_max is not None else (d >= d_min)
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


# ---------------------------------------------------------------------------
# float search, box closure (independent +/- per component)
# ---------------------------------------------------------------------------

def box_completions(k1: WaveVector, k2: WaveVector, T: int):
    """Wave vectors closing (k1, k2) under independent component-wise +/-:
    m3 = m1 +/- m2 and n3 = n1 -/+ n2 in any combination."""
    for m3 in {k1.m + k2.m, abs(k1.m - k2.m)}:
        if not 1 <= m3 <= T:
            continue
        for n3 in {k1.n + k2.n, abs(k1.n - k2.n)}:
            if 1 <= n3 <= T:
                yield WaveVector(m3, n3)


def _search_box_float(spec, domain, *, d_max=None, d_min=None, abs_max=None,
                      patterns="all", scalar_rebuild=True):
    """Float search over box-closed triads on a square domain.

    Each unordered triple regenerates from any of its three pairs, so a
    candidate is emitted only from its two lexicographically smallest
    members (the derived wave must exceed both donors).
    """
    T = domain.truncation
    if domain.shape != "square":
        raise UsageError("box closure expects a square domain")
    W = omega_grid(spec, T)
    freqs = _FrequencyMemo(spec) if scalar_rebuild else _GridFrequencies(W)
    triads = []
    modes = list(domain.modes())
    for i, k1 in enumerate(modes):
        w1 = W[k1.m, k1.n]
        for k2 in modes[i + 1:]:
            w2 = W[k2.m, k2.n]
            for k3 in box_completions(k1, k2, T):
                if not k3 > k2:
                    continue  # dedupe: emit from the smallest pair only
                ws = (w1, w2, W[k3.m, k3.n])
                if patterns == "sum":
                    om = ws[0] + ws[1] - ws[2]
                else:
                    om, _ = _min_pattern(ws)
                a = abs(om)
                if abs_max is not None:
                    if not (0 < a <= abs_max):
                        continue
                else:
                    d = a / min(abs(w) for w in ws)
                    if d_max is not None and d > d_max:
                        continue
                    if d_min is not None and d < d_min:
                        continue
                triads.append(_best_pattern_triad(freqs, k1, k2, k3,
                                                  patterns))
    return triads


# ---------------------------------------------------------------------------
# public searches
# ---------------------------------------------------------------------------

def _near_sort_key(t: Triad):
    return (t.d_ratio, t.k1, t.k2, t.k3)


def find_near_triads(spec: DispersionSpec, domain: SpectralDomain,
                     d_max: float, patterns: str = "sum",
                     closure: str = "auto", workers: int = 1,
                     skip_equal_n_pairs: bool = True) -> list:
    """All vector-closed triads with d_ratio <= d_max, sorted by d_ratio
    ascending then lexicographically.  Deterministic for any worker count.
    ``d_max = inf`` keeps every closed triad; a NaN d_max is rejected."""
    _check_threshold("d_max", d_max, ceiling=True)
    conv = resolve_closure(spec, closure)
    if spec.exactness:
        triads = []
        for k1, k2, k3, w1, w2, w3, om in _iter_sphere_candidates(
                spec, domain, skip_equal_n_pairs):
            t = _exact_candidate_triad(k1, k2, k3, (w1, w2, w3), om, patterns)
            if t.d_ratio <= d_max:
                triads.append(t)
    elif conv == "zonal":
        triads = _search_zonal_float(spec, domain, d_max=d_max,
                                     patterns=patterns,
                                     skip_equal_n_pairs=skip_equal_n_pairs)
    elif conv == "box":
        triads = _search_box_float(spec, domain, d_max=d_max, patterns=patterns)
    else:
        triads = _search_both_closure(spec, domain, d_max=d_max,
                                      patterns=patterns, workers=workers)
    triads.sort(key=_near_sort_key)
    return triads


def find_max_discrepancy_triads(spec: DispersionSpec, domain: SpectralDomain,
                                d_min: float, patterns: str = "sum",
                                closure: str = "auto",
                                workers: int = 1) -> list:
    """All vector-closed triads with d_ratio >= d_min, sorted by d_ratio
    descending; the head attains the domain maximum."""
    _check_threshold("d_min", d_min)
    conv = resolve_closure(spec, closure)
    if spec.exactness:
        triads = []
        for k1, k2, k3, w1, w2, w3, om in _iter_sphere_candidates(spec, domain):
            t = _exact_candidate_triad(k1, k2, k3, (w1, w2, w3), om, patterns)
            if t.d_ratio >= d_min:
                triads.append(t)
    elif conv == "zonal":
        triads = _search_zonal_float(spec, domain, d_min=d_min,
                                     patterns=patterns)
    elif conv == "box":
        triads = _search_box_float(spec, domain, d_min=d_min, patterns=patterns)
    else:
        triads = _search_both_closure(spec, domain, d_min=d_min,
                                      patterns=patterns, workers=workers)
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
        for k1, k2, k3, w1, w2, w3, om in _iter_sphere_candidates(
                spec, domain, skip_equal_n_pairs):
            t = _exact_candidate_triad(k1, k2, k3, (w1, w2, w3), om, patterns)
            if t.discrepancy != 0 and abs(t.discrepancy) <= omega_max:
                yield t
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
                            closure: str = "auto",
                            workers: int = 1) -> BoundReport:
    """Lower bounds on the nonzero frequency discrepancy over a domain.

    Exact rational specs get the a-priori bound 1/(b*d) with b = d = the
    least common multiple of all reduced frequency denominators (any nonzero
    Omega is an integer multiple of 1/lcm, so 1/lcm^2 <= 1/lcm <= |Omega|),
    plus the finite-domain minimum with its witness triad.  Float specs get
    the finite-domain minimum only.
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

    best = None
    if spec.exactness:
        for k1, k2, k3, w1, w2, w3, om in _iter_sphere_candidates(spec, domain):
            if om == 0:
                continue
            if best is None or abs(om) < abs(best.discrepancy):
                best = Triad(k1, k2, k3, (w1, w2, w3), om,
                             _d_ratio(om, (w1, w2, w3)))
    else:
        best = _float_min_nonzero(spec, domain, conv, workers)

    if best is None:
        return BoundReport(apriori, None,
                           note="no vector-closed triad with nonzero "
                                "discrepancy in this domain")
    finite = DiscrepancyBound(abs(best.discrepancy), "finite_domain_min",
                              witness=best)
    return BoundReport(apriori, finite)


def _float_min_nonzero(spec, domain, conv, workers):
    """Minimal nonzero |Omega| over closed triads, float path.

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
    if conv == "box":
        best = None
        for t in _search_box_float(spec, domain, d_max=math.inf):
            if t.is_exact:
                continue
            if best is None or abs(t.discrepancy) < abs(best.discrepancy):
                best = t
        return best
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
