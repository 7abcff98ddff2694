"""Partition of a spectral domain into Active / Passive / Neutral modes.

Active modes are members of exact (or numerically exact) resonant triads
plus selected minimal near-resonant bridge waves; Passive modes take part
in approximate resonant interactions (0 < |Omega| <= omega_max) through
triads none of whose pairs sit inside a resonant triad; Neutral modes do
neither.  A :class:`ModePartition` holds the classes as mode arrays.
The passive pass looks a hit's pairs up among the seeds' pairs only when
two or more of its member positions hold seed members, and the walk
spends no pass on an n-selection that keeps every candidate.

The selection rules behind the published mode-count tables are not fully
determined, so the classifier is parameterised:

``patterns``
    "sum": only the sum interaction (w1 + w2 = w3) counts.
    "all": any +/- assignment of the three frequencies counts.
``closure``
    "auto" | "both" | "zonal" | "box" vector-closure convention (see the
    search module).
``n_selection``
    Selection rule on the latitudinal indices (n1, n2, n3) of zonally
    closed triads: "none", "parity" (n1+n2+n3 odd), "triangle"
    (|n1-n2| < n3 < n1+n2) or "both".  These are the classical conditions
    for a non-vanishing spherical interaction integral.
``bridge_mode``
    "per_pair": each (resonant triad, donor pair) contributes its minimal
    bridge wave; "per_triad": only the overall minimal bridge of each
    resonant triad.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .dispersion import (
    DispersionSpec,
    OmegaValue,
    SpectralDomain,
    WaveVector,
    _is_positive_int,
)
from .errors import UsageError
from .search import (
    _BLOCK,
    _check_threshold,
    _dispatch,
    _scan,
    _select,
    _table,
)
from .triad import NUMERIC_EXACT_D, Triad, _at, _build, _signed, _step

ACTIVE, PASSIVE, NEUTRAL = CLASSES = ("active", "passive", "neutral")

N_SELECTIONS = ("none", "parity", "triangle", "both")


def _n_rule(rule, n_selection: str):
    """The latitudinal selection test (n1, n2, n3) -> bool of a classifier
    call, on ints or elementwise on integer arrays.  It keeps everything
    under ``none`` and under a closure that fixes n3: the rules are
    conditions on zonally closed triads."""
    if n_selection not in N_SELECTIONS:
        raise UsageError(f"unknown n_selection {n_selection!r}; expected "
                         f"one of {', '.join(N_SELECTIONS)}")
    parity = rule.free_n3 and n_selection in ("parity", "both")
    triangle = rule.free_n3 and n_selection in ("triangle", "both")

    def passes(n1, n2, n3):
        keep = (n1 + n2 + n3) % 2 == 1 if parity else True
        if triangle:
            keep = keep & (abs(n1 - n2) < n3) & (n3 < n1 + n2)
        return keep
    return passes


@dataclass(frozen=True)
class CascadeStep:
    """A minimal near-resonant bridge: the wave through which energy leaves
    a resonant triad via one of its donor pairs."""

    source_triad: Triad
    donor_pair: tuple
    bridge_wave: WaveVector
    bridge_discrepancy: OmegaValue

    @property
    def abs_discrepancy(self) -> float:
        return abs(float(self.bridge_discrepancy))


@dataclass
class ModeAssignment:
    mode: WaveVector
    mode_class: str
    min_abs_discrepancy: float | None = None
    evidence: list = field(default_factory=list)


@dataclass
class ModePartition:
    """Every mode's class (an index into CLASSES) and least |Omega| (NaN
    for none), as arrays over ``domain.modes()``, and ``evidence``: the
    seeds and bridges of each active mode, in the classifier's order."""

    spec: DispersionSpec
    domain: SpectralDomain
    omega_max: float
    classes: np.ndarray
    min_abs_discrepancy: np.ndarray
    evidence: dict
    resonant_triads: list
    bridges: list
    convention: dict

    @cached_property
    def assignments(self) -> MappingProxyType:
        """Read-only mode -> ModeAssignment, made on first access."""
        return MappingProxyType({k: ModeAssignment(
            k, CLASSES[c], None if d != d else d, self.evidence.get(k, []))
            for k, c, d in zip(self.domain.modes(), self.classes.tolist(),
                               self.min_abs_discrepancy.tolist())})

    def mode_class(self, k: WaveVector) -> str:
        if k not in self.domain:
            raise KeyError(k)
        (m, n), T = map(int, k), self.domain.truncation  # k's place in modes()
        skip = m * (m - 1) // 2 if self.domain.shape == "triangular" else 0
        return CLASSES[self.classes[(m - 1) * T + n - 1 - skip]]

    def counts(self) -> tuple:
        return tuple(np.bincount(self.classes, minlength=3).tolist())

    def modes_in_class(self, mode_class: str) -> list:
        if mode_class not in CLASSES:
            raise UsageError(f"mode class {mode_class!r} not in {CLASSES}")
        at = self.classes == CLASSES.index(mode_class)
        m, n = self.domain.mode_arrays()
        return list(map(WaveVector, m[at].tolist(), n[at].tolist()))


# ---------------------------------------------------------------------------
# the walk: resonant seeds and approximate-resonance hits
# ---------------------------------------------------------------------------

def _walk(X, domain, rule, passes, patterns, skip_equal_n_pairs, omega_max):
    """One walk of the closure's candidates on the table X: the resonant
    seeds that pass the n-selection ``passes``, in scan order, carrying
    X's frequencies (N == 0; on floats d <= NUMERIC_EXACT_D, the triad's
    own test), and the hits 0 < |Omega| <= omega_max that pass it, taken
    by index, as arrays (m1, n1, m2, n2, n3, |Omega|).  The exact path
    reads only the n3 where |Omega| <= omega_max can hold, and decides the
    hits at omega_max, to which a rational above it may round, by one
    build after the scan.  An n-selection that keeps every candidate
    (``passes`` gives True: "none", or a closure that fixes n3) is not
    applied, and each block's names go before the next block is built."""
    seeds = [[np.zeros(0, np.int64)] * 5]
    hits = [[np.zeros(0, np.int64)] * 5 + [np.zeros(0)]]
    for cand, a, amin in _scan(X, domain, rule, skip_equal_n_pairs,
                               (patterns, omega_max, 0, None)):
        seed = _select(a, amin, NUMERIC_EXACT_D, None)
        hit = (a > 0) & (a <= omega_max)
        ok = passes(cand[1], cand[3], cand[4])
        if ok is not True:  # the n-selection filters this closure
            seed &= ok
            hit &= ok
        if np.count_nonzero(seed):
            seeds.append([c[seed] for c in cand])
        hit = np.flatnonzero(hit)
        hits.append([c.take(hit) for c in (*cand, a)])
        del cand, a, amin, seed, hit, ok  # before the next block is built
    seeds = _build(X, patterns, [*map(np.concatenate, zip(*seeds))]).triads()
    hits = list(map(np.concatenate, zip(*hits)))
    tie = X.dtype != np.float64 and hits[5] == omega_max  # floats: False
    if np.count_nonzero(tie):
        tied = _build(X, patterns, [c[tie] for c in hits[:5]])
        tie[tie] = np.abs(tied.discrepancy) > omega_max  # now: the misses
        hits = [c[~tie] for c in hits]
    return seeds, hits


# ---------------------------------------------------------------------------
# minimal near-resonant bridge waves
# ---------------------------------------------------------------------------

def _minimal_bridges(X, domain, rule, passes, patterns, donors):
    """The minimal near-resonant bridge (a CascadeStep, or None) of each
    donor pair (triad, ka, kb) under the resolved closure ``rule`` and
    n-selection ``passes``, unvalidated (cascades bridge from near-resonant
    triads), in one array pass on the kernel table X, which covers the
    donors.  The completions in the domain that are no triad member, pass
    and are not resonant by :func:`.search._select` are read on the
    |Omega| of (ka, kb, wave) by :func:`.triad._step`, the scan's, whose
    rounding the build shares: the triads' own on floats, correctly rounded
    on the exact path.  So a pair's least (|Omega|, (m, n)) lies at its
    least float |Omega|, where its ties are ranked (:func:`_step_key`) on
    the Omega of :func:`.triad._signed`, formed as the build forms it.  A
    NaN |Omega| (an inf or NaN cell) skips its completion, not its pair."""
    T = domain.truncation
    D = np.array([(*ka, *kb, *t.k1, *t.k2, *t.k3) for t, ka, kb in donors],
                 dtype=np.int64).reshape(-1, 10)
    ma, na, mb, nb = D[:, :4].T
    m3, n3 = rule.waves(ma, na, mb, nb, T, patterns)  # (pair, completion)
    p, j = np.nonzero(
        (m3 >= 1) & (m3 <= T) & (n3 <= T)
        & (n3 >= (m3 if domain.shape == "triangular" else 1))
        & ((m3[..., None] != D[:, None, 4::2])
           | (n3[..., None] != D[:, None, 5::2])).all(2)
        & passes(na[:, None], nb[:, None], n3))
    m3, n3 = m3[p, j], n3[p, j]
    x = [_at(X, ma, na)[p], _at(X, mb, nb)[p], _at(X, m3, n3)]
    a, amin = _step(X, ma[p], na[p], *x[1:], mb[p], m3, patterns,
                    False)  # floats carry min |w| anyway
    keep = ~_select(a, amin, NUMERIC_EXACT_D, None)
    low = np.full(len(donors), np.inf)
    np.fmin.at(low, p[keep], a[keep])  # NaN is no pair's least
    steps = [None] * len(donors)
    at = np.flatnonzero(keep & (a == low[p]))
    p, m3, n3, x = p[at], m3[at], n3[at], [v[at] for v in x]
    oms = _signed(X, patterns, (ma[p], mb[p], m3), x)[0].tolist()
    for i, m, n, om in zip(p.tolist(), m3.tolist(), n3.tolist(), oms):
        step = CascadeStep(donors[i][0], donors[i][1:], WaveVector(m, n), om)
        if steps[i] is None or _step_key(step) < _step_key(steps[i]):
            steps[i] = step
    return steps


def minimal_near_resonant(spec: DispersionSpec, domain: SpectralDomain,
                          triad: Triad, donor_pair: tuple,
                          patterns: str = "sum", closure: str = "auto",
                          n_selection: str = "none") -> CascadeStep | None:
    """The bridge wave with minimal |Omega| completing vector closure with
    the donor pair, two of the triad's three members, excluding the
    triad's own members.

    Ties break lexicographically on (m, n).  Returns None when no wave in
    the domain completes the pair ("no bridge").
    """
    if not triad.is_exact:
        raise UsageError("minimal_near_resonant expects a resonant triad")
    if not any(tuple(donor_pair) in (q, q[::-1]) for q in _triad_pairs(triad)):
        raise UsageError("donor pair must be two of the triad's members")
    rule = _dispatch(spec, domain, closure, patterns)
    X = _table(spec, domain.truncation, triad.members())
    return _minimal_bridges(X, domain, rule, _n_rule(rule, n_selection),
                            patterns, [(triad, *donor_pair)])[0]


def _triad_pairs(t: Triad) -> list:
    return [(t.k1, t.k2), (t.k1, t.k3), (t.k2, t.k3)]


def _step_key(step: CascadeStep) -> tuple:
    return (abs(step.bridge_discrepancy), step.bridge_wave)


def select_bridges(X, domain, seeds, omega_max, rule, passes, patterns,
                   bridge_mode) -> list:
    """Bridge waves admitted to the Active class on their exact |Omega|,
    per (triad, pair) or per triad as ``bridge_mode`` says
    (:func:`classify_modes` checks it), from one bridge search on the
    table X per batch of whole seeds, of at most _BLOCK / T donor pairs
    (a zonal pair has up to 2 T completions)."""
    donors = [(t, *pair) for t in seeds for pair in _triad_pairs(t)]
    batch = 3 * (_BLOCK // (3 * domain.truncation) or 1)
    found = [s for i in range(0, len(donors), batch) for s in
             _minimal_bridges(X, domain, rule, passes, patterns,
                              donors[i:i + batch])]
    kept = [[s for s in found[i:i + 3] if s is not None
             and abs(s.bridge_discrepancy) <= omega_max]
            for i in range(0, len(found), 3)]  # each seed's kept bridges
    if bridge_mode == "per_pair":
        return [s for steps in kept for s in steps]
    return [min(steps, key=_step_key) for steps in kept if steps]


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def _passive_minima(domain, seeds, hits) -> np.ndarray:
    """The least |Omega| of each mode, by key m (T + 1) + n (NaN for
    none), over the approximate-resonance ``hits`` (arrays from
    :func:`_walk`) none of whose pairs lies inside a resonant seed.  A hit
    can hold a seed's pair only if at least two of its three member
    positions hold seed members (a repeated member counts at each of its
    positions), so a key table of the seeds' members picks the hits whose
    pairs are looked up."""
    m1, n1, m2, n2, n3, a = hits
    T1 = domain.truncation + 1  # mode key m T1 + n, pair key lo T1^2 + hi
    ks = (m1 * T1 + n1, m2 * T1 + n2, (m1 + m2) * T1 + n3)
    member = np.zeros(T1 * T1, np.uint8)
    member[[k.m * T1 + k.n for t in seeds for k in t.members()]] = 1
    near = np.flatnonzero(sum(member.take(k) for k in ks) >= 2)
    if near.size:
        # Pairs are looked up by binary search: the first np.isin call of
        # a process costs it about 2 MB of resident memory.
        resonant = np.array(sorted(
            (ka.m * T1 + ka.n) * T1 ** 2 + kb.m * T1 + kb.n
            for t in seeds for ka, kb in map(sorted, _triad_pairs(t))))
        kn = [k.take(near) for k in ks]
        drop = np.zeros(near.size, dtype=bool)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            p = np.minimum(kn[i], kn[j]) * T1 ** 2 + np.maximum(kn[i], kn[j])
            drop |= resonant[np.searchsorted(resonant, p) % resonant.size] == p
        if np.count_nonzero(drop):  # a NaN |Omega| is no mode's least
            a = a.copy()
            a[near[drop]] = np.nan
    least = np.full(T1 * T1, np.nan)
    for k in ks:
        np.fmin.at(least, k, a)
    return least


def classify_modes(spec: DispersionSpec, domain: SpectralDomain,
                   omega_max: float, patterns: str = "sum",
                   closure: str = "auto", n_selection: str = "none",
                   bridge_mode: str = "per_pair",
                   skip_equal_n_pairs: bool = True) -> ModePartition:
    """Assign every mode of the domain to Active, Passive or Neutral.

    Active: members of resonant triads plus admitted minimal near-resonant
    bridges.  Passive: modes in at least one approximate-resonance triad
    (0 < |Omega| <= omega_max) none of whose pairs lies inside a resonant
    triad.  Neutral: everything else.  The active members and bridges
    take their class and least |Omega| in one array pass over their mode
    keys; their evidence keeps the seeds' then the bridges' order.
    """
    _check_threshold("omega_max", omega_max)
    if bridge_mode not in ("per_pair", "per_triad"):
        raise UsageError(f"unknown bridge_mode {bridge_mode!r}")
    rule = _dispatch(spec, domain, closure, patterns)
    passes = _n_rule(rule, n_selection)
    convention = dict(patterns=patterns, closure=rule.name,
                      n_selection=n_selection, bridge_mode=bridge_mode,
                      skip_equal_n_pairs=skip_equal_n_pairs)
    X = _table(spec, domain.truncation)
    seeds, hits = _walk(X, domain, rule, passes, patterns,
                        skip_equal_n_pairs, omega_max)
    bridges = select_bridges(X, domain, seeds, omega_max, rule, passes,
                             patterns, bridge_mode)

    T1, evidence = domain.truncation + 1, {}  # mode keys as _passive_minima's
    least = _passive_minima(domain, seeds, hits)
    codes = np.where(np.isnan(least), 2, 1)  # NEUTRAL or PASSIVE
    active = [(k, t, 0.0) for t in seeds for k in t.members()] + [
        (s.bridge_wave, s, s.abs_discrepancy) for s in bridges]
    for k, why, _ in active:
        evidence.setdefault(k, []).append(why)
    at = np.array([k.m * T1 + k.n for k, _, _ in active], dtype=np.int64)
    codes[at] = 0  # ACTIVE
    np.fmin.at(least, at, [v for _, _, v in active])
    keys = np.ravel_multi_index(domain.mode_arrays(), (T1, T1))
    return ModePartition(spec, domain, float(omega_max), codes[keys],
                         least[keys], evidence, seeds, bridges, convention)


def class_counts(spec: DispersionSpec, domain: SpectralDomain,
                 omega_max: float, **convention) -> tuple:
    """(active, passive, neutral) counts of the partition."""
    return classify_modes(spec, domain, omega_max, **convention).counts()


# ---------------------------------------------------------------------------
# energy cascade construction
# ---------------------------------------------------------------------------

def cascade_path(spec: DispersionSpec, domain: SpectralDomain, seed: Triad,
                 depth: int, patterns: str = "sum", closure: str = "auto",
                 n_selection: str = "none") -> list:
    """Iteratively follow minimal near-resonant bridges, at each level
    choosing the (pair, bridge) with globally minimal |Omega|.  Each next
    triad is built on the kernel table by :func:`.triad._build`, the rule
    of every search and of the classifier.

    Stops early on "no bridge" or when a triad repeats (cycle guard).
    """
    if not _is_positive_int(depth):
        raise UsageError(f"depth must be an integer >= 1, got {depth!r}")
    if not seed.is_exact:
        raise UsageError("cascade_path expects a resonant seed triad")
    rule = _dispatch(spec, domain, closure, patterns)
    passes = _n_rule(rule, n_selection)
    X = _table(spec, domain.truncation, seed.members())
    visited = {frozenset(seed.members())}
    current = seed
    steps = []
    for _ in range(int(depth)):
        found = [s for s in _minimal_bridges(
                     X, domain, rule, passes, patterns,
                     [(current, *pair) for pair in _triad_pairs(current)])
                 if s is not None]
        if not found:
            break
        step = min(found, key=_step_key)
        steps.append(step)
        # The next triad in normal form, the same under every closure: the
        # largest-m vector, last in lexicographic order, takes the sum slot.
        ks = sorted((*step.donor_pair, step.bridge_wave))
        if frozenset(ks) in visited:
            break
        visited.add(frozenset(ks))
        current = _build(X, patterns, np.array(
            [[*ks[0], *ks[1], ks[2].n]]).T).triads()[0]
    return steps


# ---------------------------------------------------------------------------
# calibrated conventions for the published mode-count tables
# ---------------------------------------------------------------------------
# The published per-resonator counts (active/neutral at truncations 10 and
# 20) rest on selection rules that are not fully specified, so each
# resonator carries a calibrated convention.  Residual deviations from the
# published numbers are listed per cell; see the acceptance suite, which
# prints the comparison.
#
#   unit sphere   zonal closure, sum pattern, parity rule on n1+n2+n3,
#                 one bridge per triad, omega_max 0.03.
#                 T20 reproduces (51 active, 3 neutral) exactly; T10 yields
#                 6 active vs the published 4 (the parity-only rule keeps
#                 one seed triad whose latitudinal indices violate the
#                 triangle rule) with 3 neutral, matching.
#   square        squared-form plane dispersion, box closure (independent
#                 +/- per component, the cosine-mode selection rule), any
#                 sign pattern, one bridge per (triad, pair),
#                 omega_max 0.013.  T20 reproduces (53 active, 0 neutral)
#                 exactly; T10 yields 16 active vs the published 15, with
#                 0 neutral, matching.
#   rectangle 1/4 same as square on an Lx=1, Ly=4 basin, omega_max 1e-4.
#                 The published rectangle row is not reproduced exactly
#                 under any convention tried; this one gives (3, 92) vs
#                 the published (4, 75) at T10 and (9, 259) vs (16, 300)
#                 at T20.
#
# The class-change remark for mode (2,4) between the square and the 1/4
# rectangle reproduces under the zonal sum convention (REMARK_CONVENTION),
# where (2,4) sits in the exact square triad (1,2)+(2,4) and has no
# approximate interactions below the threshold on the rectangle.

SPHERE_TABLE_CONVENTION = dict(patterns="sum", closure="zonal",
                               n_selection="parity", bridge_mode="per_triad")
SPHERE_TABLE_OMEGA_MAX = 0.03

PLANE_TABLE_CONVENTION = dict(patterns="all", closure="box",
                              bridge_mode="per_pair")
SQUARE_TABLE_OMEGA_MAX = 0.013
RECTANGLE_TABLE_OMEGA_MAX = 1e-4

REMARK_CONVENTION = dict(patterns="sum", closure="zonal",
                         n_selection="none", bridge_mode="per_pair")
REMARK_OMEGA_MAX = 0.01


def bve_square_spec() -> DispersionSpec:
    """Squared-form plane dispersion on the unit square."""
    return DispersionSpec("bve_plane", plane_form="squared")


def bve_rectangle_quarter_spec() -> DispersionSpec:
    """Squared-form plane dispersion on a basin with side ratio 1/4."""
    from .dispersion import BasinGeometry
    return DispersionSpec("bve_plane", plane_form="squared",
                          basin=BasinGeometry("rectangle", lx=1.0, ly=4.0))
