"""The scan kernel on floats and on the exact sphere against brute-force
oracles: per-pair loops over every closed candidate and the per-candidate
``Fraction`` loop the exact path replaced, kept here as references.
Emitted triads are compared field by field (floats by ``float.hex``,
rationals exactly), in emission order, and so are the discrepancy-bound
witnesses and the classifier walk's approximate-resonance hits (members
and |Omega|).  The tile-pruned near search is checked against the dense scan
the same way, whatever blocks its bound cuts the rows into, the multi-row
scan blocks against the per-row generators they replaced, the exact path's
n3 windows against the dense zonal generator they bypass, and the
classifier's array bridge search against the per-pair search it replaced
(its bridges compared step by step), the passive pass against the seed
pair lookup on every hit it replaced, and the exact path's build and
bridge ties on integer terms against the ``Fraction`` sums they replaced."""

import contextlib
import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from wavetriads import (
    BasinGeometry,
    DispersionSpec,
    SpectralDomain,
    WaveVector,
    discrepancy_lower_bound,
    eval_frequency,
    find_exact_triads,
    find_max_discrepancy_triads,
    find_near_triads,
)
from wavetriads import classify, search, sphere, triad
from wavetriads.dispersion import omega_grid
from wavetriads.errors import UsageError
from wavetriads.classify import (
    ACTIVE,
    NEUTRAL,
    PASSIVE,
    CascadeStep,
    ModeAssignment,
    cascade_path,
    classify_modes,
    minimal_near_resonant,
)
from wavetriads.search import (
    NUMERIC_EXACT_D,
    SIGN_PATTERNS,
    Triad,
)
from conftest import ari_hits, pruning_specs

SPHERE = DispersionSpec("rossby_sphere")

FLOAT_SPECS = [
    DispersionSpec("capillary"),
    DispersionSpec("capillary", basin=BasinGeometry("rectangle", 1.0, 2.5)),
    DispersionSpec("gravity_capillary", mu_over_nu=75.0),
    DispersionSpec("gravity_capillary", mu_over_nu=16.0,
                   basin=BasinGeometry("rectangle", 2.0, 2.0)),
    DispersionSpec("gravity_capillary", mu_over_nu=27.0,
                   basin=BasinGeometry("rectangle", 1.0, 1.7)),
    DispersionSpec("gravity_tanh", alpha=0.5),
    DispersionSpec("bve_plane"),
    DispersionSpec("bve_plane", plane_form="squared"),
    DispersionSpec("bve_plane", plane_form="squared",
                   basin=BasinGeometry("rectangle", 1.0, 4.0)),
]


# -- field-by-field comparison ----------------------------------------------------

class FrequencyMemo(dict):
    """``eval_frequency`` values by mode, each evaluated once: the oracles'
    frequencies, independent of the kernel table under test."""

    def __init__(self, spec):
        self.spec = spec

    def __missing__(self, k):
        w = self[k] = eval_frequency(self.spec, k).omega
        return w


def _num(x):
    if isinstance(x, Fraction):
        return (type(x).__name__, x.numerator, x.denominator)
    return (type(x).__name__, float.hex(x))


def fields(triads):
    out = []
    for t in triads:
        assert all(type(c) is int for k in t.members() for c in k)
        out.append((t.k1, t.k2, t.k3, tuple(_num(w) for w in t.omegas),
                    _num(t.discrepancy), _num(t.d_ratio), t.signs))
    return out


def hit_fields(hits):
    """The walk's hit arrays as rows (k1, k2, k3, |Omega| by float.hex)."""
    return [(WaveVector(m1, n1), WaveVector(m2, n2), WaveVector(m1 + m2, n3),
             float.hex(a))
            for m1, n1, m2, n2, n3, a in zip(*(c.tolist() for c in hits))]


def abs_fields(triads):
    """Rows (k1, k2, k3, float |Omega| by float.hex) of triads; the float
    of a Fraction is correctly rounded."""
    return [(t.k1, t.k2, t.k3, float.hex(float(abs(t.discrepancy))))
            for t in triads]


def _residual(ws, patterns):
    """Signed residual and signs: the sum pattern's, or the first of least
    |Omega| over the sign patterns."""
    if patterns == "all":
        best = None
        for signs in SIGN_PATTERNS:
            om = signs[0] * ws[0] + signs[1] * ws[1] + signs[2] * ws[2]
            if best is None or abs(om) < abs(best[0]):
                best = (om, signs)
        return best
    return ws[0] + ws[1] - ws[2], (1, 1, -1)


def _candidate_triad(k1, k2, k3, ws, patterns):
    om, signs = _residual(ws, patterns)
    d = abs(float(om)) / min(abs(float(w)) for w in ws)
    return Triad(k1, k2, k3, ws, om, d, signs)


def _first_min_nonzero(triads):
    best = None
    for t in triads:
        if t.is_exact:
            continue
        if best is None or abs(t.discrepancy) < abs(best.discrepancy):
            best = t
    return best


# -- floats: the per-pair loops ---------------------------------------------------

def oracle_completions(k1, k2, T):
    return sorted(WaveVector(m3, n3)
                  for m3 in {k1.m + k2.m, abs(k1.m - k2.m)}
                  for n3 in {k1.n + k2.n, abs(k1.n - k2.n)}
                  if 1 <= m3 <= T and 1 <= n3 <= T)


def closed_candidates(domain, closure, skip_equal_n_pairs=True):
    """Every closed candidate (k1, k2, k3) in scan order, pair by pair.

    ``both``: k1 <= k2, k3 = k1 + k2.  ``zonal``: k1 <= k2 (n1 != n2 with
    ``skip_equal_n_pairs``), m3 = m1 + m2, every n3 of the domain.
    ``box``: k1 < k2, every completion k3 > k2."""
    T = domain.truncation
    modes = list(domain.modes())
    for i, k1 in enumerate(modes):
        for k2 in modes[i:]:
            if closure == "both":
                k3s = [WaveVector(k1.m + k2.m, k1.n + k2.n)]
            elif closure == "zonal":
                if skip_equal_n_pairs and k1.n == k2.n:
                    continue
                k3s = [WaveVector(k1.m + k2.m, n3) for n3 in range(1, T + 1)]
            elif k2 != k1:
                k3s = [k3 for k3 in oracle_completions(k1, k2, T) if k3 > k2]
            else:
                k3s = []
            for k3 in k3s:
                if k3 in domain:
                    yield k1, k2, k3


def pair_oracle(spec, domain, closure, *, d_max=None, d_min=None,
                abs_max=None, patterns="all", scalar_rebuild=True,
                skip_equal_n_pairs=True):
    """Every closed candidate, the predicate on the grid frequencies, and
    the rebuild from scalar (or grid) values."""
    W = omega_grid(spec, domain.truncation)
    scalar = {}
    out = []
    for k1, k2, k3 in closed_candidates(domain, closure, skip_equal_n_pairs):
        ws = tuple(W[k.m, k.n] for k in (k1, k2, k3))
        if patterns == "sum":
            om = ws[0] + ws[1] - ws[2]
        else:
            om = _candidate_triad(k1, k2, k3, ws, "all").discrepancy
        a = abs(om)
        if abs_max is not None:
            if not 0 < a <= abs_max:
                continue
        else:
            d = a / min(abs(w) for w in ws)
            if d_max is not None and d > d_max:
                continue
            if d_min is not None and d < d_min:
                continue
        if scalar_rebuild:
            for k in (k1, k2, k3):
                if k not in scalar:
                    scalar[k] = eval_frequency(spec, k).omega
            ws = tuple(scalar[k] for k in (k1, k2, k3))
        else:
            ws = tuple(float(w) for w in ws)
        out.append(_candidate_triad(k1, k2, k3, ws, patterns))
    return out


def check_float_kernel(spec, domain, closure, patterns, predicate, skip,
                       data):
    """The kernel against the pair loop, with thresholds drawn at candidate
    values to probe the boundary of the predicate: the searches' triads,
    and the classifier walk's approximate-resonance hits with the grid
    |Omega| they were decided on."""
    kw = dict(patterns=patterns, skip_equal_n_pairs=skip)
    if predicate == "abs_max":
        closed = pair_oracle(spec, domain, closure, d_max=math.inf,
                             scalar_rebuild=False, **kw)
        values = [abs(t.discrepancy) for t in closed if t.discrepancy] or [1.0]
        omega_max = data.draw(st.sampled_from(values))
        assert hit_fields(ari_hits(spec, domain, omega_max, patterns, closure,
                                   skip)) == \
            abs_fields(pair_oracle(spec, domain, closure, abs_max=omega_max,
                                   scalar_rebuild=False, **kw))
        return
    closed = pair_oracle(spec, domain, closure, d_max=math.inf, **kw)
    if predicate == "seeds":
        kw["d_max"] = NUMERIC_EXACT_D
    else:
        values = [t.d_ratio for t in closed if t.d_ratio] or [0.5]
        kw[predicate] = data.draw(st.sampled_from(values))
    assert fields(search._search(spec, domain, search.CLOSURES[closure],
                                 **kw).triads()) == \
        fields(pair_oracle(spec, domain, closure, **kw))


def test_box_waves_ascending():
    """The box closure's completions of every pair of modes at T = 7, in
    one array call: each pair's in the domain, in ascending (m3, n3)
    order."""
    domain = SpectralDomain(7)
    modes = list(domain.modes())
    pairs = [(k1, k2) for k1 in modes for k2 in modes]
    ma, na, mb, nb = (np.array(c) for c in zip(*(
        (*k1, *k2) for k1, k2 in pairs)))
    m3, n3 = search.CLOSURES["box"].waves(ma, na, mb, nb, 7, "all")
    assert [[WaveVector(m, n) for m, n in zip(*row) if WaveVector(m, n) in
             domain] for row in zip(m3.tolist(), n3.tolist())] == \
        [oracle_completions(k1, k2, 7) for k1, k2 in pairs]


PREDICATES = st.sampled_from(["d_max", "d_min", "abs_max", "seeds"])


@given(spec=st.sampled_from(FLOAT_SPECS), T=st.integers(1, 9),
       patterns=st.sampled_from(["sum", "all"]), predicate=PREDICATES,
       data=st.data())
def test_box_kernel_matches_pair_loop(spec, T, patterns, predicate, data):
    check_float_kernel(spec, SpectralDomain(T), "box", patterns, predicate,
                       True, data)


@given(spec=st.sampled_from(FLOAT_SPECS), T=st.integers(1, 9),
       patterns=st.sampled_from(["sum", "all"]), predicate=PREDICATES,
       data=st.data())
def test_both_kernel_matches_pair_loop(spec, T, patterns, predicate, data):
    check_float_kernel(spec, SpectralDomain(T), "both", patterns, predicate,
                       True, data)


@given(spec=st.sampled_from(FLOAT_SPECS), T=st.integers(1, 9),
       shape=st.sampled_from(["square", "triangular"]), skip=st.booleans(),
       patterns=st.sampled_from(["sum", "all"]), predicate=PREDICATES,
       data=st.data())
def test_zonal_kernel_matches_pair_loop(spec, T, shape, skip, patterns,
                                        predicate, data):
    check_float_kernel(spec, SpectralDomain(T, shape), "zonal", patterns,
                       predicate, skip, data)


def check_float_bound(spec, domain, closure):
    """The first least nonzero |Omega| in scan order, on scalar
    frequencies, under the closure's bound patterns (``all`` for box,
    ``sum`` otherwise)."""
    rep = discrepancy_lower_bound(spec, domain, closure=closure)
    want = _first_min_nonzero(pair_oracle(
        spec, domain, closure, d_max=math.inf,
        patterns="all" if closure == "box" else "sum"))
    if want is None:
        assert rep.finite_min is None
    else:
        assert fields([rep.finite_min.witness]) == fields([want])
        assert rep.finite_min.value == abs(want.discrepancy)


def finite_bound_oracle(spec, T):
    """(|Omega|, k1, k2, k3) of the first ``both``-closed candidate of least
    finite nonzero sum-pattern |Omega| on the grid, candidate by candidate
    in scan order: a candidate with an inf or NaN |Omega| is skipped, and
    so is a numerically exact one."""
    w = omega_grid(spec, T).tolist()
    best = None
    for m1 in range(1, T // 2 + 1):
        for n1 in range(1, T):
            for m2 in range(m1, T - m1 + 1):
                for n2 in range(n1 if m2 == m1 else 1, T - n1 + 1):
                    ws = (w[m1][n1], w[m2][n2], w[m1 + m2][n1 + n2])
                    a = abs(ws[0] + ws[1] - ws[2])
                    if (math.isfinite(a) and a / min(map(abs, ws)) >
                            NUMERIC_EXACT_D and (best is None or a < best[0])):
                        best = (a, WaveVector(m1, n1), WaveVector(m2, n2),
                                WaveVector(m1 + m2, n1 + n2))
    return best


@pytest.mark.parametrize("T", [24, 40])
def test_bound_skips_non_finite_candidates(T):
    """On a grid that overflows to inf (mu/nu 1e305) every block holds a
    candidate with an inf or NaN |Omega|; the bound still finds the least
    finite nonzero |Omega| (it once skipped every such block and reported
    none), 2.86e151 at [1,7][8,1][9,8] for both truncations."""
    spec = DispersionSpec("gravity_capillary", mu_over_nu=1e305)
    with np.errstate(invalid="ignore", over="ignore"):
        assert not np.isfinite(omega_grid(spec, T)).all()
        rep = discrepancy_lower_bound(spec, SpectralDomain(T))
        want = finite_bound_oracle(spec, T)
    assert (float.hex(rep.finite_min.value), *rep.finite_min.witness.key()) \
        == (float.hex(want[0]), *want[1:])
    assert str(rep.finite_min.witness) == "[1,7][8,1][9,8]"
    assert rep.finite_min.value == 2.860450478672972e+151


@given(spec=st.sampled_from(FLOAT_SPECS), T=st.integers(1, 9))
def test_box_bound_matches_pair_loop(spec, T):
    check_float_bound(spec, SpectralDomain(T), "box")


@given(spec=st.sampled_from(FLOAT_SPECS), T=st.integers(1, 9),
       closure=st.sampled_from(["both", "zonal"]),
       shape=st.sampled_from(["square", "triangular"]))
def test_float_bound_matches_pair_loop(spec, T, closure, shape):
    """Only zonal closure takes a triangular domain."""
    check_float_bound(spec, SpectralDomain(
        T, shape if closure == "zonal" else "square"), closure)


# -- floats: the tile-pruned near search against the dense scan ----------------

BOTH = search.CLOSURES["both"]


def unpruned(patterns):
    """The scan test (patterns, tau, widen, d_max) that no closure can
    prune on: no |Omega| bound and no d ceiling."""
    return (patterns, math.inf, 0, None)


def dense_near(spec, domain, patterns, d_max, freqs=None):
    """The near search over every ``both`` block, with no tile pruned, its
    triads built on the scalar frequencies ``freqs`` (by default an
    ``eval_frequency`` memo), not on the table."""
    freqs = FrequencyMemo(spec) if freqs is None else freqs
    out = []
    for cand, a, amin in search._scan(search._table(spec, domain.truncation),
                                      domain, BOTH, True, unpruned(patterns)):
        keep = search._select(a, amin, d_max, None)
        for m1, n1, m2, n2, n3 in zip(*(c[keep].tolist() for c in cand)):
            ks = (WaveVector(m1, n1), WaveVector(m2, n2),
                  WaveVector(m1 + m2, n3))
            out.append(_candidate_triad(*ks, tuple(freqs[k] for k in ks),
                                        patterns))
    return out


def pruned_near(spec, domain, patterns, d_max, tile=8, gather=256,
                block=search._BLOCK):
    """The near search as find_near_triads runs it, unsorted, with the
    tile side, the gather chunk and the bound's tile cap set for the
    call."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_TILE", tile)
        mp.setattr(search, "_GATHER_TILES", gather)
        mp.setattr(search, "_BLOCK", block)
        return search._search(spec, domain, BOTH, patterns=patterns,
                              d_max=d_max).triads()


def scan_ds(spec, domain, patterns):
    """Every candidate's float d = |Omega| / min |w|, as the scan has it."""
    return np.concatenate([(a / amin).ravel() for _, a, amin in search._scan(
        search._table(spec, domain.truncation), domain, BOTH, True,
        unpruned(patterns))] or [np.empty(0)])


D_MAX = [1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.3, math.inf]


#: Caps on the tiles the bound takes at once: below one k1 row's tiles
#: (one m tile against every n tile) a block holds a single m tile, so a
#: row's m tiles split across blocks; 4096 is ``_BLOCK``.
BLOCK_CAPS = [1, 7, 100, 1000, 4096]


@given(spec=pruning_specs(), T=st.integers(1, 40),
       patterns=st.sampled_from(["sum", "all"]),
       tile=st.sampled_from([1, 2, 4, 8]), gather=st.sampled_from([1, 3, 256]),
       block=st.sampled_from(BLOCK_CAPS), data=st.data())
@example(spec=DispersionSpec("gravity_capillary", mu_over_nu=75.0), T=40,
         patterns="sum", tile=8, gather=256, block=4096, data=None)
@example(spec=DispersionSpec("gravity_capillary", mu_over_nu=75.0), T=40,
         patterns="all", tile=8, gather=256, block=1, data=None)
def test_pruned_near_search_matches_dense_scan(spec, T, patterns, tile,
                                               gather, block, data):
    """Bit for bit and in scan order, at the listed ceilings, at d_max = inf
    (T <= 12: every candidate is built) and at a candidate's own float d,
    which ties on the threshold; whatever blocks the bound's tile cap cuts
    the rows into."""
    domain = SpectralDomain(T)
    if data is None:
        d_maxes = [1e-5]
    else:
        ds = np.unique(scan_ds(spec, domain, patterns))
        ties = ds[np.isfinite(ds)][:50].tolist() or [1e-5]
        d_maxes = [data.draw(st.sampled_from(
                       D_MAX if T <= 12 else D_MAX[:-2])),
                   data.draw(st.sampled_from(ties))]
    for d_max in d_maxes:
        assert fields(pruned_near(spec, domain, patterns, d_max, tile,
                                  gather, block)) == \
            fields(dense_near(spec, domain, patterns, d_max))


@given(spec=pruning_specs(), T=st.integers(2, 30),
       patterns=st.sampled_from(["sum", "all"]),
       d_max=st.sampled_from([0.3, 10.0, 1e300]),
       block=st.sampled_from([1, 7, 64]))
@example(spec=DispersionSpec("gravity_capillary", mu_over_nu=75.0), T=30,
         patterns="sum", d_max=10.0, block=64)
def test_tile_blocks_hold_at_most_block_candidates(spec, T, patterns, d_max,
                                                   block):
    """Under a loose finite d_max, where most tiles stay live, the tile
    path keeps the block contract of every closure: each block of
    ``_both_blocks`` holds at most ``_BLOCK`` candidates (patched small),
    the blocks run in strictly increasing scan order, and together they
    keep, bit for bit, the candidates the dense scan keeps."""
    domain, X = SpectralDomain(T), search._table(spec, T)
    test = (patterns, math.inf, 0, d_max)

    def select(a, amin):
        return search._select(a, amin, d_max, None)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_BLOCK", block)
        got, sizes = flat_blocks(BOTH.blocks(X, domain, True, test))
        pruned = kept(search._scan(X, domain, BOTH, True, test), select)
    assert all(0 < size <= block for size in sizes)
    if got is not None:
        m1, n1, _, _, m2, n2, _ = got
        key = ((m1 * (T + 1) + n1) * (T + 1) + m2) * (T + 1) + n2
        assert (np.diff(key) > 0).all()
    assert same_columns(pruned, kept(search._scan(
        X, domain, BOTH, True, unpruned(patterns)), select))


def test_loose_ceiling_peaks_as_the_dense_search():
    """At d_max = 10 on gc75 at T = 40 every candidate passes, and the
    tile path yields them ``_BLOCK`` at a time: the column search's
    tracemalloc peak is within 5% of the d_max = inf search, which scans
    densely (56.0 MB each with numpy 2.4.6; one block of every survivor
    peaked at 63.6 MB)."""
    spec, domain = (DispersionSpec("gravity_capillary", mu_over_nu=75.0),
                    SpectralDomain(40))
    peaks = []
    for d_max in (10.0, math.inf):
        search._sorted_search(spec, SpectralDomain(8), d_max=d_max)
        tracemalloc.start()
        try:
            n = len(search._sorted_search(spec, domain, d_max=d_max))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert n == 304400
    assert peaks[0] <= 1.05 * peaks[1]


@pytest.mark.parametrize("spec", [
    DispersionSpec("capillary"),
    DispersionSpec("gravity_capillary", mu_over_nu=75.0),
    DispersionSpec("gravity_tanh", alpha=0.5,
                   basin=BasinGeometry("rectangle", 1.0, 1.7)),
    DispersionSpec("bve_plane"),
    DispersionSpec("bve_plane", plane_form="squared")])
@pytest.mark.parametrize("patterns", ["sum", "all"])
def test_pruned_near_search_keeps_ties_with_one_point_tiles(spec, patterns):
    """With 1 x 1 tiles the bound has no spread: it is the residual itself,
    rounded in another order.  At d_max = a candidate's own float d the
    candidate must stay, which only the rounding slack guarantees."""
    domain = SpectralDomain(10)
    ds = np.unique(scan_ds(spec, domain, patterns))
    for d_max in ds[np.isfinite(ds) & (ds > 0)][::24].tolist():
        assert fields(pruned_near(spec, domain, patterns, d_max, tile=1)) == \
            fields(dense_near(spec, domain, patterns, d_max))


def corrupted_grid(cell, mirrored=False):
    """omega_grid with the cell (m, n) = cell[:2] mod T, plus 1, set to
    cell[2], and with ``mirrored`` its transpose (n, m) too; it takes the
    optional n extent that ``_table`` passes."""
    def grid(spec, T, N=None):
        W = omega_grid(spec, T, N)
        m, n = cell[0] % T + 1, cell[1] % T + 1
        W[m, n] = cell[2]
        if mirrored:
            W[n, m] = cell[2]
        return W
    return grid


@given(T=st.integers(2, 24), patterns=st.sampled_from(["sum", "all"]),
       cell=st.tuples(st.integers(0, 99), st.integers(0, 99),
                      st.sampled_from([math.nan, math.inf, -math.inf,
                                       1e308])),
       d_max=st.sampled_from([1e-6, 1e-3, 0.3, 1e300]))
def test_pruning_is_safe_on_grids_with_inf_or_nan(T, patterns, cell, d_max):
    """A grid that overflows (huge mu/nu) or holds one NaN, inf or huge
    value gives the dense scan's triads: nothing NaN- or inf-driven drops
    a candidate the dense scan keeps.  The triads carry the grid's values,
    so the oracle's frequencies hold the corrupted cell too."""
    domain = SpectralDomain(T)
    huge = DispersionSpec("gravity_capillary", mu_over_nu=1e305)
    spec = DispersionSpec("gravity_capillary", mu_over_nu=75.0)
    with np.errstate(invalid="ignore", over="ignore"):
        assert not np.isfinite(omega_grid(huge, 24)).all()
        assert fields(pruned_near(huge, domain, patterns, d_max)) == \
            fields(dense_near(huge, domain, patterns, d_max))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "omega_grid", corrupted_grid(cell))
            freqs = FrequencyMemo(spec)
            freqs[WaveVector(cell[0] % T + 1, cell[1] % T + 1)] = cell[2]
            assert fields(pruned_near(spec, domain, patterns, d_max)) == \
                fields(dense_near(spec, domain, patterns, d_max, freqs))


#: A corrupted_grid cell: its (m, n), wrapped into the grid, and a NaN,
#: an infinity or a value whose sums overflow.
CORRUPT_CELLS = st.tuples(st.integers(0, 99), st.integers(0, 99),
                          st.sampled_from([math.nan, math.inf, -math.inf,
                                           1e308]))


def corrupted_bound_oracle(W, domain, closure):
    """(|Omega|, k1, k2, k3) of the first candidate of least finite nonzero
    |Omega| on the grid W under the closure's bound patterns (any sign
    pattern under box, else the sum), candidate by candidate in scan
    order: a candidate with an inf or NaN |Omega| is skipped, and so is a
    numerically exact one."""
    w = W.tolist()
    best = None
    for ks in closed_candidates(domain, closure):
        ws = tuple(w[k.m][k.n] for k in ks)
        a = abs(_residual(ws, "all" if closure == "box" else "sum")[0])
        if (math.isfinite(a) and a / min(map(abs, ws)) > NUMERIC_EXACT_D
                and (best is None or a < best[0])):
            best = (a, *ks)
    return best


@given(spec=st.sampled_from(FLOAT_SPECS), T=st.integers(1, 12),
       closure=st.sampled_from(["both", "zonal", "box"]),
       shape=st.sampled_from(["square", "triangular"]), cell=CORRUPT_CELLS)
def test_bound_skips_non_finite_candidates_on_corrupted_grids(spec, T, closure,
                                                              shape, cell):
    """The bound on a grid with one NaN, inf, -inf or 1e308 cell, under
    every closure (box reads all sign patterns; only zonal closure takes a
    triangular domain): each non-finite candidate is skipped on its own,
    never its block, and the witness is the oracle's."""
    domain = SpectralDomain(T, shape if closure == "zonal" else "square")
    with np.errstate(invalid="ignore", over="ignore"), \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "omega_grid", corrupted_grid(cell))
        rep = discrepancy_lower_bound(spec, domain, closure=closure)
        want = corrupted_bound_oracle(search._table(spec, T), domain, closure)
    if want is None:
        assert rep.finite_min is None
    else:
        assert (float.hex(rep.finite_min.value),
                *rep.finite_min.witness.key()) == (float.hex(want[0]),
                                                   *want[1:])


@contextlib.contextmanager
def bound_calls():
    """Every ``_live_tiles`` call made inside the block, in order, as
    (m tiles, n tiles, masks): one per block of m tiles."""
    calls, bound = [], search._live_tiles

    def spy(Pf, R, tables, m_tiles, n_tiles, *rest):
        calls.append((m_tiles, n_tiles, bound(Pf, R, tables, m_tiles,
                                              n_tiles, *rest)))
        return calls[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_live_tiles", spy)
        yield calls


def row_tiles(T, t=8):
    """The t x t tiles of the k2 box m1 <= m2 <= T - m1, 1 <= n2 <= T - n1
    of every k1, by loops: the m tiles (m1, m_lo, m_hi) of every row and
    the n tiles (n1, n_lo, n_hi) of every n1, inclusive, in scan order."""
    m = [(m1, lo, min(lo + t - 1, T - m1)) for m1 in range(1, T // 2 + 1)
         for lo in range(m1, T - m1 + 1, t)]
    n = [(n1, lo, min(lo + t - 1, T - n1)) for n1 in range(1, T)
         for lo in range(1, T - n1 + 1, t)]
    return [np.array(v, dtype=np.int64).reshape(-1, 3).T for v in (m, n)]


def symmetric(X):
    """Whether the grid of the near search, the table X off its zero row
    and column, is square and equal to its transpose cell by cell (a NaN
    equals nothing): where the bound may skip the tiles whose every cell
    has m3 > n3."""
    W = X[1:, 1:]
    return W.shape[0] == W.shape[1] and bool((W == W.T).all())


def tile_index(tiles, got):
    """The places in ``tiles`` (3 x k, from :func:`row_tiles`) of the tiles
    ``got`` (m or n tiles of a bound call), each one of them exactly."""
    place = {tuple(c): i for i, c in enumerate(tiles.T.tolist())}
    return np.array([place[tuple(c)] for c in np.array(got).T.tolist()],
                    dtype=np.int64)


def check_blocks(calls, T, block=search._BLOCK, mirror=False):
    """The blocks cut the m tiles of every row in scan order, each once, at
    most ``block`` tiles (at least one m tile) a block, and bound each
    against every n tile.  On a ``mirror`` (transpose-symmetric) grid each
    m tile is bounded once, in a block of at most ``block`` tiles (at
    least one m tile) that takes exactly the n tiles whose greatest n3
    reaches the least m3 of one of its m tiles; so each (m tile, n tile)
    pair that holds a cell with m3 <= n3 is bounded exactly once."""
    m_tiles, n_tiles = row_tiles(T)
    if mirror:
        least_m3, most_n3 = m_tiles[0] + m_tiles[1], n_tiles[0] + n_tiles[2]
        bounded = np.zeros((m_tiles.shape[1], n_tiles.shape[1]), np.int64)
        rows = []  # each call's m tiles
        for b, (tm, tn, _) in enumerate(calls):
            i, j = tile_index(m_tiles, tm), tile_index(n_tiles, tn)
            rows += i.tolist()
            assert sorted(j.tolist()) == np.flatnonzero(
                most_n3 >= least_m3[i].min()).tolist()
            assert i.size == max(block // max(j.size, 1), 1) or \
                b == len(calls) - 1  # only the last block may be short
            np.add.at(bounded, (i[:, None], j), 1)
        assert sorted(rows) == list(range(m_tiles.shape[1]))  # each once
        assert (bounded[least_m3[:, None] <= most_n3] == 1).all()
        return
    for k, tiles in enumerate(m_tiles):
        assert np.array_equal(np.concatenate(
            [c[0][k] for c in calls] + [np.zeros(0, int)]), tiles)
    for (bm1, _, _), tn, _ in calls:
        assert all(np.array_equal(a, b) for a, b in zip(tn, n_tiles))
        assert bm1.size == max(block // n_tiles[0].size, 1) or \
            bm1 is calls[-1][0][0]  # only the last block may be short


def tile_of(calls, k1, k2):
    """(block, m tile, n tile) of the tile that holds the candidate
    (k1, k2), or None if no bound call took it: at most one."""
    (m1, n1), (m2, n2) = k1, k2
    held = []
    for b, ((tm1, m_lo, m_hi), (tn1, n_lo, n_hi), _) in enumerate(calls):
        i = np.flatnonzero((tm1 == m1) & (m_lo <= m2) & (m2 <= m_hi))
        j = np.flatnonzero((tn1 == n1) & (n_lo <= n2) & (n2 <= n_hi))
        held += [(b, x, y) for x in i.tolist() for y in j.tolist()]
    assert len(held) <= 1, (k1, k2, held)
    return held[0] if held else None


@pytest.mark.parametrize("patterns", ["sum", "all"])
def test_tile_bound_prunes_nothing_at_infinite_d_max(patterns):
    """d_max = inf takes the dense scan, and the bound alone keeps every
    tile there too; at d_max = 1e-5 it skips most tiles of gc75 T=40.
    There the grid is certified, so each bound call reads one mask, the
    sum pattern's, whatever the patterns; at d_max = inf, above the
    certificate's 1/2, it reads one per pattern of the call.  The unit
    square's grid is transpose-symmetric: the bound takes only the tiles
    that can hold m3 <= n3 (:func:`check_blocks`)."""
    spec, T = DispersionSpec("gravity_capillary", mu_over_nu=75.0), 40
    live = {}
    for d in (math.inf, 1e-5):
        with bound_calls() as calls:
            list(search._tile_scan(search._table(spec, T), SpectralDomain(T),
                                   patterns, d))
        check_blocks(calls, T, mirror=True)
        assert all(len(masks) == (3 if patterns == "all" and d == math.inf
                                  else 1) for _, _, masks in calls)
        live[d] = [mask for _, _, masks in calls for mask in masks]
    assert all(t.all() for t in live[math.inf])
    kept = sum(t.sum() for t in live[1e-5]) / sum(t.size for t in live[1e-5])
    assert kept < 0.5
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_tile_scan", None)  # would raise if called
        domain = SpectralDomain(6)
        assert len(find_near_triads(spec, domain, math.inf, patterns)) == \
            len(list(closed_candidates(domain, "both")))


def corrupted_near(spec, T, patterns, d_max, cell):
    """The pruned near search (with every bound call's masks) and the
    dense scan's triads on the spec's grid, its ``cell`` corrupted
    (:func:`corrupted_grid`) unless None; the oracle's frequencies hold
    the corrupted cell too."""
    domain, freqs = SpectralDomain(T), FrequencyMemo(spec)
    with np.errstate(invalid="ignore", over="ignore"), \
            pytest.MonkeyPatch.context() as mp:
        if cell is not None:
            mp.setattr(search, "omega_grid", corrupted_grid(cell))
            freqs[WaveVector(cell[0] % T + 1, cell[1] % T + 1)] = cell[2]
        with bound_calls() as calls:
            got = pruned_near(spec, domain, patterns, d_max)
        return calls, got, dense_near(spec, domain, patterns, d_max, freqs)


GC75 = DispersionSpec("gravity_capillary", mu_over_nu=75.0)


@pytest.mark.parametrize("spec, T, cell, d_max, masks", [
    (DispersionSpec("bve_plane"), 40, None, 1e-5, 3),
    (DispersionSpec("bve_plane", plane_form="squared"), 40, None, 1e-5, 3),
    (GC75, 40, (3, 4, math.nan), 1e-5, 3),
    (GC75, 40, (3, 4, math.inf), 1e-5, 3),
    (GC75, 40, (0, 0, 1e-20), 1e-5, 3),
    (GC75, 40, (5, 5, 1.0), 1e-5, 3),
    (GC75, 14, None, math.nextafter(0.5, 1), 3),
    (GC75, 14, None, 0.5, 1)],
    ids=["bve", "bve-squared", "nan-cell", "inf-cell", "ratio-past-2**40",
         "decreasing-cell", "above-1/2", "at-1/2"])
def test_uncertified_grids_bound_every_pattern(spec, T, cell, d_max, masks):
    """All patterns: each bound call reads one mask per sign pattern where
    the certificate fails, on the bve plane (negative frequencies), on
    gc75 with a NaN or inf cell, with a cell of 1e-20 at (1, 1) (the grid
    stays nondecreasing, but its max/min passes 2**40) or a cell below its
    neighbours, and at a d_max just above 1/2; at 1/2 itself gc75 is
    certified: one mask.  Each search gives the dense scan's triads."""
    calls, got, want = corrupted_near(spec, T, "all", d_max, cell)
    assert calls and all(len(live) == masks for _, _, live in calls)
    assert fields(got) == fields(want)


def certified(W, d_max):
    """The certificate on the omega grid W, with numpy's own checks: its
    cells off the zero row and column are finite and positive, are
    nondecreasing along both axes, and span less than 2**40; and
    d_max <= 1/2."""
    W = W[1:, 1:]
    return bool(d_max <= 0.5 and np.isfinite(W).all() and (W > 0).all()
                and (np.diff(W, axis=0) >= 0).all()
                and (np.diff(W, axis=1) >= 0).all()
                and W.max() / W.min() < 2.0 ** 40)


@given(spec=pruning_specs(), T=st.integers(1, 24),
       patterns=st.sampled_from(["sum", "all"]),
       cell=st.none() | CORRUPT_CELLS | st.sampled_from(
           [(0, 0, 1e-20), (4, 4, 1.0)]), data=st.data())
@example(spec=GC75, T=24, patterns="all", cell=None, data=None)
def test_certified_and_fallback_grids_match_dense_scan(spec, T, patterns,
                                                       cell, data):
    """Every float kind and basin, certified or not (negative, NaN, inf,
    huge or out-of-order cells): the bound reads the sum pattern alone
    exactly when :func:`certified` holds, else every pattern of the call,
    and the pruned search gives the dense scan's triads bit for bit, at
    ceilings that tie with a candidate's own d near the threshold 1/2,
    near 1, the least d a difference pattern can reach on a certified
    grid, or far below them."""
    d_maxes = [0.5, math.nextafter(0.5, 0), math.nextafter(0.5, 1), 1e-5]
    with np.errstate(invalid="ignore", over="ignore"), \
            pytest.MonkeyPatch.context() as mp:
        if cell is not None:
            mp.setattr(search, "omega_grid", corrupted_grid(cell))
        ds = np.unique(scan_ds(spec, SpectralDomain(T), patterns))
        W = search._table(spec, T)
    ds = ds[np.isfinite(ds) & (ds > 0)]
    d_maxes += [d for near in (0.5, 1.0)
                for d in ds[np.argsort(np.abs(ds - near))[:20]].tolist()]
    d_maxes += ds[:20].tolist()
    d_max = 0.5 if data is None else data.draw(st.sampled_from(d_maxes))
    calls, got, want = corrupted_near(spec, T, patterns, d_max, cell)
    one = certified(W, d_max) or patterns == "sum"
    assert all(len(live) == (1 if one else 3) for _, _, live in calls)
    assert fields(got) == fields(want)


def live_for_a_keeping_pattern(calls, k1, k2, w, d_max):
    """Whether the candidate (k1, k2) with frequencies ``w`` lies in a tile
    of the bound's ``calls`` that is live for a sign pattern whose own
    float d = |Omega| / min |w| is <= d_max (the scan's expressions)."""
    held = tile_of(calls, k1, k2)
    if held is None:
        return False
    b, i, j = held
    w = np.array(w)
    amin = min(min(abs(w[1]), abs(w[2])), abs(w[0]))
    return any(mask[i, j] and abs(residual(*w)) / amin <= d_max
               for residual, mask in zip(search.RESIDUALS, calls[b][2]))


def check_live_pattern(spec, domain, patterns, d_max, block=search._BLOCK):
    """Every hit of the dense scan lies in one tile, bounded once, that the
    bound keeps live for a sign pattern that keeps the hit; on a
    transpose-symmetric grid the hit or its transpose (members swapped
    into lexicographic order where they must be) does.  The pruned
    search, with 128-tile gathers, returns the dense scan's triads.
    Returns the bound's calls, one per block."""
    mirror = symmetric(search._table(spec, domain.truncation))
    with bound_calls() as calls:
        pruned = pruned_near(spec, domain, patterns, d_max, 8, 128, block)
    check_blocks(calls, domain.truncation, block, mirror)
    dense = dense_near(spec, domain, patterns, d_max)
    for t in dense:
        ways = [(t.k1, t.k2, t.omegas)]
        if mirror:
            (k1, w1), (k2, w2) = sorted(
                (WaveVector(k.n, k.m), w)
                for k, w in zip((t.k1, t.k2), t.omegas))
            ways.append((k1, k2, (w1, w2, t.omegas[2])))
        assert any(live_for_a_keeping_pattern(calls, *way, d_max)
                   for way in ways), t
    assert fields(pruned) == fields(dense)
    return calls


@given(spec=pruning_specs(), T=st.integers(1, 24),
       patterns=st.sampled_from(["sum", "all"]),
       block=st.sampled_from(BLOCK_CAPS), data=st.data())
def test_each_hit_is_live_for_a_pattern_that_keeps_it(spec, T, patterns,
                                                      block, data):
    """One mask per sign pattern: whatever patterns a hit's tile is dead
    for, it is live for one whose residual keeps the hit.  d_max is a
    candidate's own float d, so the hit with it ties on the threshold."""
    domain = SpectralDomain(T)
    ds = np.unique(scan_ds(spec, domain, patterns))
    ds = ds[np.isfinite(ds) & (ds > 0)]
    assume(ds.size)
    check_live_pattern(spec, domain, patterns,
                       data.draw(st.sampled_from(ds[:200].tolist())), block)


@pytest.mark.parametrize("spec", [
    DispersionSpec("gravity_capillary", mu_over_nu=75.0),
    DispersionSpec("capillary", basin=BasinGeometry("rectangle", 1.0, 2.5))])
@pytest.mark.parametrize("T, patterns, d_max", [
    (76, "sum", 1e-4), (88, "sum", 1e-5), (92, "all", 1e-5)])
def test_pruned_near_search_at_benchmark_sizes(spec, T, patterns, d_max):
    """The near-scan rungs, where a block's live tiles fill several
    gathers of ``_GATHER_TILES`` and rows span two blocks: the dense scan's
    triads, each hit (or, on the symmetric unit square, its transpose)
    live for a pattern that keeps it.  The capillary relation is convex,
    so it has no hit here: the pruned search must find none either.  On
    the unit square the blocks take m tiles by their least m3, so a row's
    m tiles spread over blocks, not only two consecutive ones."""
    calls = check_live_pattern(spec, SpectralDomain(T), patterns, d_max)
    assert max(mask.sum() for _, _, live in calls for mask in live) > 2 * 128
    if symmetric(search._table(spec, T)):
        rows = [np.unique(c[0][0]) for c in calls]
        assert sum(r.size for r in rows) > np.unique(np.concatenate(rows)).size
    else:
        assert any(a[0][0][-1] == b[0][0][0]
                   for a, b in zip(calls, calls[1:]))


@pytest.mark.parametrize("spec, mirror", [
    (GC75, True),
    (DispersionSpec("gravity_capillary", mu_over_nu=75.0,
                    basin=BasinGeometry("rectangle", 1.0, 2.74)), False)],
    ids=["unit-square", "rectangle"])
def test_symmetric_grids_bound_only_tiles_that_can_hold_m3_le_n3(spec, mirror):
    """gc75 at T=92, all patterns, d_max 1e-5: on the unit square, whose
    grid is transpose-symmetric, the bound takes at most 65% of the
    162,432 (m tile, n tile) pairs (each pair that can hold m3 <= n3, once;
    96,784 of them); on a 1 x 2.74 rectangle it takes all of them, as
    before.  Both searches give the dense scan's triads."""
    T, domain = 92, SpectralDomain(92)
    assert symmetric(search._table(spec, T)) == mirror
    with bound_calls() as calls:
        got = pruned_near(spec, domain, "all", 1e-5)
    check_blocks(calls, T, mirror=mirror)
    m_tiles, n_tiles = row_tiles(T)
    assert m_tiles.shape[1] * n_tiles.shape[1] == 162_432
    bounded = sum(tm[0].size * tn[0].size for tm, tn, _ in calls)
    assert bounded <= 0.65 * 162_432 if mirror else bounded == 162_432
    assert fields(got) == fields(dense_near(spec, domain, "all", 1e-5))


@given(T=st.integers(2, 24), patterns=st.sampled_from(["sum", "all"]),
       cell=st.tuples(st.integers(0, 99), st.integers(0, 99),
                      st.sampled_from([math.nan, math.inf, -math.inf,
                                       1e308, "ulp"])),
       mirrored=st.booleans(),
       d_max=st.sampled_from([1e-6, 1e-3, 0.3, 1e300]),
       block=st.sampled_from([1, 7, 4096]))
@example(T=24, patterns="all", cell=(3, 9, math.inf), mirrored=True,
         d_max=1e-3, block=1)
@example(T=24, patterns="all", cell=(3, 9, math.nan), mirrored=True,
         d_max=1e-3, block=1)
@example(T=24, patterns="sum", cell=(3, 9, "ulp"), mirrored=False,
         d_max=1e-3, block=1)
def test_mirror_path_on_corrupted_grids(T, patterns, cell, mirrored, d_max,
                                        block):
    """gc75 on the unit square with one cell, and with ``mirrored`` its
    transpose too, set to NaN, inf, -inf, 1e308, or one ulp above its own
    value: the bound skips the tiles that cannot hold m3 <= n3 exactly
    when the grid stays transpose-symmetric (a mirrored pair or a diagonal
    cell that is not NaN), and a NaN, or one cell off the diagonal moved
    by one ulp, falls back to full tiles (:func:`check_blocks`).  Either
    way the search gives the dense scan's triads, whose frequencies hold
    the corrupted cells too."""
    domain, (m, n, value) = SpectralDomain(T), cell
    m, n = m % T + 1, n % T + 1
    if value == "ulp":
        value = math.nextafter(float(omega_grid(GC75, T)[m, n]), math.inf)
    mirror = not math.isnan(value) and (mirrored or m == n)
    freqs = FrequencyMemo(GC75)
    freqs[WaveVector(m, n)] = value
    if mirrored:
        freqs[WaveVector(n, m)] = value
    with np.errstate(invalid="ignore", over="ignore"), \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "omega_grid",
                   corrupted_grid((m - 1, n - 1, value), mirrored))
        assert symmetric(search._table(GC75, T)) == mirror
        with bound_calls() as calls:
            got = pruned_near(GC75, domain, patterns, d_max, block=block)
        check_blocks(calls, T, block, mirror)
        assert fields(got) == fields(dense_near(GC75, domain, patterns, d_max,
                                                freqs))


# -- the tile kernels against their cell-by-cell references -----------------------
#
# The bound and the prefilter as they read the grid before they read runs:
# two (min, max) difference tables per axis, each gathered one scalar a
# tile, and every cell of a live tile gathered by its own index.  The
# kernels must give their masks and keys bit for bit.

def cell_window_tables(X, t):
    """Least and greatest forward difference of X over the t x t window at
    every anchor, as (axis m/n, min/max, cell i R + j), each axis reduced
    on its own."""
    T = X.shape[0] - 1
    W, R = X[1:, 1:], T + 1 + t
    tables = np.empty((2, 2, R, R))
    shifts = [min(2 ** k, t - 2 ** k) for k in range((t - 1).bit_length())]
    for axis, G in zip(tables, (W[1:] - W[:-1], W[:, 1:] - W[:, :-1])):
        for S, reduce, pad in zip(axis, (np.minimum, np.maximum),
                                  (np.inf, -np.inf)):
            S.fill(pad)
            S[1:1 + G.shape[0], 1:1 + G.shape[1]] = G
            for s in shifts:
                reduce(S[:-s], S[s:], out=S[:-s])
                reduce(S[:, :-s], S[:, s:], out=S[:, :-s])
    return tables.reshape(2, 2, -1)


def cell_live_tiles(Pf, R, tables, m_tiles, n_tiles, patterns, d_max, slack):
    """The bound's masks, one per sign pattern, from the tables of
    :func:`cell_window_tables`, each extreme gathered on its own."""
    def take(values, index, out):
        return values.take(index, out=out, mode="clip")

    def widen(spread, steps, a, b):
        np.maximum(np.maximum(a, b, out=a), 0.0, out=a)
        spread += np.multiply(a, steps, out=a)

    def live(r, spread, bound):
        return ~(np.subtract(np.abs(r, out=r), spread, out=r) > bound)

    (m1, m_lo, m_hi), (n1, n_lo, n_hi) = (v[:, None] for v in m_tiles), n_tiles
    cm, cn = (m_lo + m_hi) // 2, (n_lo + n_hi) // 2
    k1, k2 = m1 * R + n1, m_lo * R + n_lo
    k3 = k1 + k2
    a, b, c = (np.empty(k1.shape) for _ in range(3))
    spread_d = np.zeros(k1.shape)
    spread_s = np.zeros(k1.shape) if patterns == "all" else None
    for (lo, hi), steps in zip(tables, (m_hi - cm, n_hi - cn)):
        widen(spread_d, steps,
              np.subtract(take(hi, k3, a), take(lo, k2, b), out=a),
              np.subtract(take(hi, k2, b), take(lo, k3, c), out=b))
        if patterns == "all":
            widen(spread_s, steps,
                  np.add(take(hi, k3, a), take(hi, k2, b), out=a),
                  np.negative(np.add(take(lo, k3, b), take(lo, k2, c),
                                     out=b), out=b))
    for k in (k2, k3):
        k += (cm - m_lo) * R
        k += cn - n_lo
    x2, x3, w1 = take(Pf, k2, a), take(Pf, k3, b), take(Pf, k1, c)
    bound = np.abs(w1)
    bound *= d_max
    bound *= 1 + 16 * search._U
    bound += slack
    if patterns == "all":
        r = np.add(x3, x2)
        s_live = live(np.subtract(r, w1, out=r), spread_s, bound)
    D = np.subtract(x3, x2, out=x3)
    masks = [live(np.subtract(w1, D, out=x2), spread_d, bound)]
    if patterns == "all":
        masks += [live(np.add(w1, D, out=x2), spread_d, bound), s_live]
    return masks


def cell_prefilter(Pf, R, signs, scale, tiles, t, gather):
    """The prefilter's keys k1 R^2 + k2 for the tiles of corner keys
    ``tiles``: every cell of ``gather`` tiles at a time gathered by its
    own index."""
    k1, corner = np.divmod(tiles, R * R)
    cells = np.add.outer(np.arange(t) * R, np.arange(t)).ravel()
    add = {1: np.add, -1: np.subtract}
    keys = [np.zeros(0, np.int64)]
    for c in range(0, k1.size, gather):
        k1c = k1[c:c + gather, None]
        k2, w1 = corner[c:c + gather, None] + cells, Pf.take(k1c)
        k2 += k1c
        w3 = Pf.take(k2)
        k2 -= k1c
        r = Pf.take(k2)
        add[signs[2]](add[signs[1]](signs[0] * w1, r, out=r), w3, out=r)
        at = np.flatnonzero(np.abs(r, out=r) <= scale * np.abs(w1) + 1e-300)
        keys.append(k1c.take(at // cells.size) * R * R + k2.take(at))
    return np.sort(np.concatenate(keys))


@contextlib.contextmanager
def kernel_calls(*names):
    """Every call of the search kernels ``names`` made inside the block, in
    order, as (name, args, result)."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name in names:
            def spy(*args, kernel=getattr(search, name), name=name):
                calls.append((name, args, kernel(*args)))
                return calls[-1][2]
            mp.setattr(search, name, spy)
        yield calls


def tie_scale(Pf, R, signs, key):
    """A scale at which the threshold fl(scale |w1|) + 1e-300 of the cell of
    ``key`` equals its |residual| exactly, or None: the residual summed as
    the prefilter sums it (a - b is a + (-b) bit for bit)."""
    k1, k2 = divmod(int(key), R * R)
    w1, w2, w3 = (float(Pf[k]) for k in (k1, k2, k1 + k2))
    r = abs((signs[0] * w1 + signs[1] * w2) + signs[2] * w3)
    if not (math.isfinite(r) and math.isfinite(w1) and w1 != 0 and r > 0):
        return None
    s = r / abs(w1)
    for _ in range(8):
        if not 0 < s < math.inf:
            return None
        got = s * abs(w1) + 1e-300
        if got == r:
            return s
        s = math.nextafter(s, math.inf if got < r else 0.0)
    return None


@given(spec=pruning_specs(), T=st.integers(2, 24),
       patterns=st.sampled_from(["sum", "all"]),
       tile=st.sampled_from([2, 4, 8]), gather=st.sampled_from([1, 7, 128]),
       cell=st.none() | st.tuples(
           st.integers(0, 99), st.integers(0, 99),
           st.sampled_from([math.nan, math.inf, -math.inf, 1e308, "ulp"])),
       mirrored=st.booleans(),
       d_max=st.sampled_from([1e-6, 1e-3, 0.3, 1e300]))
@example(spec=GC75, T=24, patterns="all", tile=8, gather=7, cell=None,
         mirrored=False, d_max=1e-3)
@example(spec=DispersionSpec("bve_plane"), T=24, patterns="all", tile=4,
         gather=1, cell=(3, 9, math.nan), mirrored=True, d_max=0.3)
@example(spec=GC75, T=24, patterns="sum", tile=2, gather=128,
         cell=(3, 9, "ulp"), mirrored=False, d_max=1e-3)
def test_tile_kernels_match_their_cell_references(spec, T, patterns, tile,
                                                  gather, cell, mirrored,
                                                  d_max):
    """Every float kind and basin, certified or not (``bve_plane``; a NaN,
    inf, -inf, 1e308 or one-ulp-up cell, alone or with its transpose),
    tile sides 2, 4 and 8 and gathers of 1, 7 and 128 tiles: each bound
    call's masks equal, bit for bit, those of :func:`cell_live_tiles` on
    :func:`cell_window_tables` (two reductions per grid, where a
    transpose-symmetric grid copies its n tables), each pattern's
    prefilter takes exactly the tiles its bound calls left live, and its
    keys equal :func:`cell_prefilter`'s, also at a scale whose threshold
    equals a cell's |residual| exactly, which keeps that cell."""
    domain = SpectralDomain(T)
    with np.errstate(invalid="ignore", over="ignore"), \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_TILE", tile)
        mp.setattr(search, "_GATHER_TILES", gather)
        if cell is not None:
            m, n, value = cell[0] % T + 1, cell[1] % T + 1, cell[2]
            if value == "ulp":
                value = math.nextafter(float(omega_grid(spec, T)[m, n]),
                                       math.inf)
            mp.setattr(search, "omega_grid",
                       corrupted_grid((m - 1, n - 1, value), mirrored))
        X = search._table(spec, T)
        with kernel_calls("_live_tiles", "_prefilter") as calls:
            list(search._tile_scan(X, domain, patterns, d_max))
        P = np.pad(X, (0, tile), constant_values=np.nan)
        R, Pf = P.shape[1], P.ravel()
        tables = cell_window_tables(X, tile)
        live = {signs: [] for signs in SIGN_PATTERNS}  # tile keys
        for name, args, got in calls:
            if name == "_live_tiles":
                m_tiles, n_tiles, *rest = args[3:]
                want = cell_live_tiles(Pf, R, tables, m_tiles, n_tiles,
                                       *rest)
                assert [(g.dtype, g.tobytes()) for g in got] == \
                    [(w.dtype, w.tobytes()) for w in want]
                for signs, mask in zip(SIGN_PATTERNS, want):
                    i, j = np.nonzero(mask)
                    live[signs] += (((m_tiles[0][i] * R + n_tiles[0][j])
                                     * R + m_tiles[1][i]) * R
                                    + n_tiles[1][j]).tolist()
                continue
            E, _, signs, scale, tiles = args
            assert E.shape[1] == math.gcd(tile, 4)
            assert sorted(tiles.tolist()) == sorted(live[signs])
            want = cell_prefilter(Pf, R, signs, scale, tiles, tile, gather)
            assert np.array_equal(np.sort(got), want)
            cells = (tiles[:, None] + np.add.outer(
                np.arange(tile) * R, np.arange(tile)).ravel()).ravel()
            ties = (tie_scale(Pf, R, signs, k) for k in cells[:64])
            tie = next(((k, s) for k, s in zip(cells[:64].tolist(), ties)
                        if s is not None), None)
            if tie is not None:
                k, s = tie
                got = search._prefilter(E, R, signs, s, tiles)
                want = cell_prefilter(Pf, R, signs, s, tiles, tile, gather)
                assert np.array_equal(np.sort(got), want)
                assert k in want


@pytest.mark.parametrize("T, patterns, ceiling", [
    (92, "all", 1_428_858), (88, "sum", 1_015_547)])
def test_pruned_near_search_memory_peak(T, patterns, ceiling):
    """tracemalloc's peak over find_near_triads on gc75 at d_max = 1e-5
    (54 and 48 triads) stays at most the peak of a bound taken one k1 row
    at a time, measured with numpy 2.4.6: the bound's blocks and the
    gathers hold no more at once."""
    spec, domain = (DispersionSpec("gravity_capillary", mu_over_nu=75.0),
                    SpectralDomain(T))
    find_near_triads(spec, domain, 1e-5, patterns)  # lazy set-up first
    tracemalloc.start()
    try:
        n = len(find_near_triads(spec, domain, 1e-5, patterns))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == {92: 54, 88: 48}[T]
    assert peak <= ceiling


def test_scan_lets_each_block_go_before_the_next():
    """The dense float zonal near search on gc75 at T=40 (d_max 1e-5, 112
    triads) lets the scan's and the search's names of a block go before
    the next block is built, so tracemalloc's peak stays under 8 MB (6.59
    MB measured with numpy 2.4.6; 10.06 MB while they were held)."""
    query = (GC75, SpectralDomain(40), 1e-5, "sum", "zonal")
    find_near_triads(*query)  # lazy set-up first
    tracemalloc.start()
    try:
        n = len(find_near_triads(*query))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 112
    assert peak < 8_000_000


def test_search_lets_its_blocks_go_before_the_build():
    """The column search behind the CLI's inventory of water at T=30
    (d_min 0.1, 90,169 triads) joins the candidates each block keeps and
    lets the blocks' shares go before it builds, so tracemalloc's peak
    stays under 13.0 MB (12.28 MB measured with numpy 2.4.6, as the CLI's
    CSV inventory; 15.94 MB while the shares were held through the
    build)."""
    search._search(GC75, SpectralDomain(8), BOTH, patterns="sum",
                   d_min=0.1)  # lazy set-up first
    tracemalloc.start()
    try:
        n = len(search._search(GC75, SpectralDomain(30), BOTH,
                               patterns="sum", d_min=0.1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 90169
    assert peak < 13_000_000


def test_sorted_search_sorts_one_column_at_a_time():
    """The CLI's inventory of water at T=30 (d_min 0.1) is sorted column
    by column, each unsorted column let go once its sorted copy is made,
    so the sort adds nothing to the column search's tracemalloc peak:
    10.85 MB measured with numpy 2.4.6, against 12.28 MB when every
    sorted copy was made while all the unsorted columns were held.  The
    columns are the unsorted ones in the stable order of -d."""
    domain = SpectralDomain(30)
    search._sorted_search(GC75, SpectralDomain(8), d_min=0.1)
    tracemalloc.start()
    try:
        got = search._sorted_search(GC75, domain, d_min=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11_300_000
    found = search._search(GC75, domain, BOTH, patterns="sum", d_min=0.1)
    order = np.argsort(-found.d_ratio, kind="stable")
    for k, column in vars(found).items():
        want = column if k == "table" else column[order]
        assert getattr(got, k).tobytes() == want.tobytes()


@pytest.mark.parametrize("T", [92, 128])
def test_dense_both_blocks_hold_at_most_block_candidates(T):
    """Above T = 65 one k1 row holds more than ``_BLOCK`` candidates,
    (T - 1)^2 at k1 = (1, 1); the dense ``both`` blocks cut such a row
    between its k2 rows, so none holds more (16,129 at T=128 when rows
    were kept whole).  Their candidates are the per-row generator's in
    scan order: strictly increasing keys (k1, k2), each in its k1's box
    with n3 = n1 + n2 and the table's values at k2 and k3, as many as the
    per-row generator's."""
    X, domain, R = search._table(GC75, T), SpectralDomain(T), T + 1
    last, count = -1, 0
    for m1, n1, x2, x3, m2, n2, n3 in BOTH.blocks(X, domain, True,
                                                    unpruned("sum")):
        assert 0 < m2.size <= search._BLOCK
        key = ((m1 * R + n1) * R + m2) * R + n2
        assert key[0] > last and (np.diff(key) > 0).all()
        last, count = key[-1], count + m2.size
        assert ((m1 <= m2) & (m2 <= T - m1) & ((m2 > m1) | (n2 >= n1))
                & (n2 >= 1) & (n3 == n1 + n2) & (n3 <= T)).all()
        assert x2.tobytes() == X[m2, n2].tobytes()
        assert x3.tobytes() == X[m1 + m2, n3].tobytes()
    assert count == sum(x2.size for _, _, x2, *_ in row_both_blocks(
        X, domain, True))


# -- exact sphere: the Fraction loop ----------------------------------------------

def sphere_candidates(domain, skip_equal_n_pairs, rows=None):
    """(k1, k2, k3, ws, Omega of the sum pattern) for every zonally closed
    candidate whose k1 is in ``rows`` (all modes by default), in
    (k1, k2, n3) order, on Fraction frequencies."""
    T = domain.truncation
    freqs = {k: eval_frequency(SPHERE, k).omega for k in domain.modes()}
    triangular = domain.shape == "triangular"
    modes = list(domain.modes())
    for i, k1 in enumerate(modes):
        if rows is not None and k1 not in rows:
            continue
        for k2 in modes[i + 1:]:
            if skip_equal_n_pairs and k1.n == k2.n:
                continue
            m3 = k1.m + k2.m
            if m3 > T:
                continue
            w_sum = freqs[k1] + freqs[k2]
            for n3 in range(m3 if triangular else 1, T + 1):
                k3 = WaveVector(m3, n3)
                yield k1, k2, k3, (freqs[k1], freqs[k2], freqs[k3]), \
                    w_sum - freqs[k3]


def _closing_n3(m3, w3):
    """Integer n3 >= 1 with -2 m3 / (n3 (n3 + 1)) == w3, or None."""
    if w3 >= 0:
        return None
    x = Fraction(-2 * m3) / w3
    if x.denominator != 1:
        return None
    r = math.isqrt(4 * x.numerator + 1)
    if r * r != 4 * x.numerator + 1 or (r - 1) % 2:
        return None
    n3 = (r - 1) // 2
    return n3 if n3 >= 1 else None


def exact_oracle(domain, skip_equal_n_pairs, patterns, rows):
    """Exact resonances with k1 in ``rows``, by solving each sign pattern
    for the closing n3; the first pattern in SIGN_PATTERNS order wins."""
    freqs = {k: eval_frequency(SPHERE, k).omega for k in domain.modes()}
    modes = list(domain.modes())
    out = {}
    for i, k1 in enumerate(modes):
        if k1 not in rows:
            continue
        for k2 in modes[i + 1:]:
            if skip_equal_n_pairs and k1.n == k2.n:
                continue
            m3 = k1.m + k2.m
            for signs in (SIGN_PATTERNS if patterns == "all"
                          else SIGN_PATTERNS[:1]):
                w3 = -(signs[0] * freqs[k1] + signs[1] * freqs[k2]) * signs[2]
                n3 = _closing_n3(m3, w3)
                if n3 is None or WaveVector(m3, n3) not in domain:
                    continue
                k3 = WaveVector(m3, n3)
                ws = (freqs[k1], freqs[k2], freqs[k3])
                om = signs[0] * ws[0] + signs[1] * ws[1] + signs[2] * ws[2]
                assert om == 0
                out.setdefault((k1, k2, k3), Triad(k1, k2, k3, ws, om, 0.0,
                                                   signs))
    return sorted(out.values(), key=lambda t: t.key())


def _near_key(t):
    return (t.d_ratio, t.k1, t.k2, t.k3)


@given(T=st.integers(1, 20), shape=st.sampled_from(["triangular", "square"]),
       skip=st.booleans(), patterns=st.sampled_from(["sum", "all"]),
       data=st.data())
def test_exact_kernel_matches_fraction_loop(T, shape, skip, patterns, data):
    """Each search against the Fraction loop over a few k1 rows (the
    kernels work row by row); thresholds are drawn from the candidates'
    own values, at the edge of the float prefilters."""
    domain = SpectralDomain(T, shape)
    modes = list(domain.modes())
    # The first row holds the most candidates, among them the extreme
    # values the thresholds are drawn from.
    rows = {modes[0], *data.draw(st.lists(st.sampled_from(modes), max_size=2),
                                 label="rows")}

    def in_rows(triads):
        return [t for t in triads if t.k1 in rows]

    cands = [_candidate_triad(k1, k2, k3, ws, patterns)
             for k1, k2, k3, ws, _ in sphere_candidates(domain, skip, rows)]
    d_ratios = sorted({t.d_ratio for t in cands if t.d_ratio}) or [0.5]
    omegas = sorted({abs(t.discrepancy) for t in cands if t.discrepancy})
    d_max = data.draw(st.sampled_from(d_ratios[:3]), label="d_max")
    omega_max = data.draw(st.sampled_from([float(w) for w in omegas[:3]]
                                          or [0.03]), label="omega_max")

    exact = exact_oracle(domain, skip, patterns, rows)
    assert [t for t in cands if t.discrepancy == 0] == exact
    assert fields(in_rows(classify_modes(
        SPHERE, domain, omega_max, patterns=patterns,
        skip_equal_n_pairs=skip).resonant_triads)) == fields(exact)
    if patterns == "sum":
        assert fields(in_rows(find_exact_triads(SPHERE, domain, skip))) == \
            fields(exact)
    assert fields(in_rows(find_near_triads(
        SPHERE, domain, d_max, patterns=patterns,
        skip_equal_n_pairs=skip))) == \
        fields(sorted((t for t in cands if t.d_ratio <= d_max), key=_near_key))
    assert [h for h in hit_fields(ari_hits(
        SPHERE, domain, omega_max, patterns=patterns,
        skip_equal_n_pairs=skip)) if h[0] in rows] == \
        abs_fields([t for t in cands
                    if t.discrepancy != 0 and abs(t.discrepancy) <= omega_max])
    if skip:  # the max-discrepancy search always skips n1 = n2
        d_min = data.draw(st.sampled_from(d_ratios[-3:]), label="d_min")
        assert fields(in_rows(find_max_discrepancy_triads(
            SPHERE, domain, d_min, patterns=patterns))) == fields(sorted(
                (t for t in cands if t.d_ratio >= d_min),
                key=lambda t: (-t.d_ratio, t.k1, t.k2, t.k3)))


@given(T=st.integers(1, 20), shape=st.sampled_from(["triangular", "square"]))
def test_exact_bound_matches_fraction_loop(T, shape):
    """The first least nonzero sum-pattern |Omega| over every candidate,
    and the a-priori bound 1 / lcm^2 over the modes' Fraction
    denominators."""
    domain = SpectralDomain(T, shape)
    best = None
    for k1, k2, k3, ws, om in sphere_candidates(domain, True):
        if om != 0 and (best is None or abs(om) < abs(best[-1])):
            best = (k1, k2, k3, ws, om)
    rep = discrepancy_lower_bound(SPHERE, domain)
    lcm = math.lcm(*(eval_frequency(SPHERE, k).omega.denominator
                     for k in domain.modes()))
    assert rep.apriori.value == Fraction(1, lcm * lcm)
    if best is None:
        assert rep.finite_min is None
    else:
        assert fields([rep.finite_min.witness]) == \
            fields([_candidate_triad(*best[:4], "sum")])
        assert rep.finite_min.value == abs(best[-1])


@pytest.mark.parametrize("shape", ["triangular", "square"])
def test_exact_kernel_python_int_fallback(shape, monkeypatch):
    """Beyond the float-exact bound the kernel computes N and |Omega| in
    Python integers, with the same results."""
    domain = SpectralDomain(12, shape)

    def run():
        return [fields(find_exact_triads(SPHERE, domain)),
                fields(classify_modes(SPHERE, domain, 0.03, patterns="all")
                       .resonant_triads),
                fields(find_near_triads(SPHERE, domain, 0.01, patterns="all")),
                fields(find_max_discrepancy_triads(SPHERE, domain, 20.0)),
                hit_fields(ari_hits(SPHERE, domain, 0.03)),
                fields([discrepancy_lower_bound(SPHERE, domain)
                        .finite_min.witness]),
                _num(discrepancy_lower_bound(SPHERE, domain).apriori.value),
                partition_fields(classify_modes(SPHERE, domain, 0.03,
                                                patterns="all"))]

    int64 = run()
    monkeypatch.setattr(search, "_FLOAT_EXACT_LIMIT", 0)
    assert search._table(SPHERE, domain.truncation).dtype == object
    assert run() == int64


@given(m1=st.integers(1000, 1500), n1=st.integers(2000, 3000),
       k2s=st.lists(st.tuples(st.integers(1000, 1500), st.integers(2000, 3000),
                              st.integers(2000, 3000)), min_size=1, max_size=8),
       patterns=st.sampled_from(["sum", "all"]))
@example(m1=1000, n1=2000, k2s=[(1000, 2999, 2001)], patterns="sum")
def test_exact_step_beyond_2_53_matches_fraction(m1, n1, k2s, patterns):
    """At T = 3000 the table holds Python integers; |Omega| is the Python
    int quotient 2|N| / (a1 a2 a3), which equals float(|Omega|) of the
    rational residual although the denominators exceed 2**53 (and 2|N|
    does too in the explicit example)."""
    X = search._table(SPHERE, 3000)
    assert X.dtype == object
    m2, n2, n3 = (np.array(c, dtype=np.int64) for c in zip(*k2s))
    a, amin = search._step(X, m1, n1, X[m2, n2], X[m1 + m2, n3], m2,
                           m1 + m2, patterns, True)
    for i, (m, n, nw) in enumerate(k2s):
        ks = (WaveVector(m1, n1), WaveVector(m, n), WaveVector(m1 + m, nw))
        t = _candidate_triad(*ks, tuple(eval_frequency(SPHERE, k).omega
                                        for k in ks), patterns)
        assert math.prod(k.n * (k.n + 1) for k in ks) >= 2 ** 53
        assert float.hex(float(a[i])) == float.hex(float(abs(t.discrepancy)))
        assert float(a[i]) / float(amin[i]) == t.d_ratio


# -- exact sphere: integer terms against the Fraction sums they replaced -----

def fraction_omegas(X, m, n):
    """The members' frequencies as the exact path made them: one Fraction
    -2m/a per mode (m, n) of the integer arrays m and n, a = X[m, n]."""
    return np.array(list(map(Fraction, (-2 * m).tolist(), X[m, n].tolist())))


def fraction_pattern(w1, w2, w3, patterns):
    """The sign-pattern rule on object arrays of the members' Fractions,
    as the exact path's build and bridge ties applied it before they chose
    patterns on integer terms: the sum pattern's residual, or the first of
    least |Omega|, and its index in SIGN_PATTERNS."""
    om, *others = (r(w1, w2, w3) for r in
                   search.RESIDUALS[:3 if patterns == "all" else 1])
    best = np.zeros(len(om), dtype=np.int64)
    for i, o in enumerate(others, 1):
        less = abs(o) < abs(om)
        om, best = np.where(less, o, om), np.where(less, i, best)
    return om, best


def fraction_signed(X, patterns, m1, n1, m2, n2, m3, n3):
    """The bridge ties' residual and pattern as they were: the pattern
    rule on the members' Fraction frequencies read from X."""
    return fraction_pattern(*fraction_omegas(X, np.concatenate((m1, m2, m3)),
                                             np.concatenate((n1, n2, n3)))
                            .reshape(3, -1), patterns)


def fraction_build(X, patterns, cand):
    """``triad._build`` as it was, as the rows of ``column_rows``: every
    residual summed from the members' Fraction frequencies."""
    m1, n1, m2, n2, n3 = cand
    w1, w2, w3 = fraction_omegas(X, np.concatenate((m1, m2, m1 + m2)),
                                 np.concatenate((n1, n2, n3))).reshape(3, -1)
    om, best = fraction_pattern(w1, w2, w3, patterns)
    low = np.abs(w1.astype(float))
    for w in (w2, w3):
        w = np.abs(w.astype(float))
        low = np.where(w < low, w, low)
    return rows((m1, n1, m2, n2, n3, best), (w1, w2, w3, om),
                np.abs(om.astype(float)) / low)


def rows(ints, numbers, d_ratio):
    """Rows of the integer arrays ``ints``, the arrays ``numbers`` by type
    and exact value, and ``d_ratio`` by ``float.hex``."""
    return list(zip(*(c.tolist() for c in ints),
                    *(map(_num, c.tolist()) for c in numbers),
                    map(float.hex, d_ratio.tolist())))


def column_rows(cols):
    """Columns as rows: the members and the pattern index, each member's
    frequency as the columns' table gives it (``TriadColumns.modes``) and
    the discrepancy, and d_ratio."""
    if not len(cols):
        return []
    _, w, index = cols.modes()
    return rows((cols.m1, cols.n1, cols.m2, cols.n2, cols.n3, cols.pattern),
                (*(w[index(m, n)] for m, n in cols.members()),
                 cols.discrepancy), cols.d_ratio)


@contextlib.contextmanager
def no_fraction_patterns():
    """Fail if ``_pattern`` (as ``triad._build`` and ``_signed`` read it) or
    ``_least_abs`` (as ``triad._step`` reads it) is handed a ``Fraction``
    inside the block."""
    def guard(f):
        def checked(*args):
            assert not any(isinstance(v, Fraction) for t in args[:3]
                           for v in np.ravel(t).tolist())
            return f(*args)
        return checked

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(triad, "_pattern", guard(triad._pattern))
        mp.setattr(triad, "_least_abs", guard(triad._least_abs))
        yield


@contextlib.contextmanager
def no_fraction_floats():
    """Fail if a ``Fraction`` is converted to a float inside the block."""
    def refuse(self):
        raise AssertionError(f"float({self!r})")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fraction, "__float__", refuse)
        yield


def check_integer_terms(X, domain, patterns, cand, pairs):
    """``_build`` of the candidates ``cand`` and ``_signed`` of the zonal
    completions in ``domain`` of the donor ``pairs`` (ma, na, mb, nb),
    which the bridge search ranks its ties by, against their Fraction
    forms, field by field; no Fraction reaches the pattern rule, and the
    build reads none as a float (it rounds d as the scan's step does)."""
    with no_fraction_patterns(), no_fraction_floats():
        got = triad._build(X, patterns, cand)
    assert column_rows(got) == fraction_build(X, patterns, cand)
    ma, na, mb, nb = pairs
    m3, n3 = search.CLOSURES["zonal"].waves(ma, na, mb, nb,
                                            domain.truncation, patterns)
    p, j = np.nonzero((m3 >= 1) & (m3 <= domain.truncation) & (n3 >= (
        m3 if domain.shape == "triangular" else 1)))
    ties = (ma[p], na[p], mb[p], nb[p], m3[p, j], n3[p, j])
    m, n = np.stack(ties[::2]), np.stack(ties[1::2])
    with no_fraction_patterns(), no_fraction_floats():
        om, best = triad._signed(X, patterns, m, X[m, n])
    want_om, want_best = fraction_signed(X, patterns, *ties)
    assert [_num(v) for v in om.tolist()] == [_num(v) for v in
                                              want_om.tolist()]
    assert best.tolist() == want_best.tolist()


@given(T=st.integers(1, 12), shape=st.sampled_from(["square", "triangular"]),
       patterns=st.sampled_from(["sum", "all"]), skip=st.booleans(),
       picks=st.lists(st.integers(0, 2 ** 16), max_size=16))
def test_integer_build_matches_the_fraction_build(T, shape, patterns, skip,
                                                  picks):
    """The exact path's build and bridge ties on integer terms against
    the Fraction forms they replaced, kept above: every zonal candidate of
    the domain, scanned with no Fraction reaching the step, built as
    columns, and the completions of drawn donor pairs ranked as the bridge
    search ranks its ties."""
    domain = SpectralDomain(T, shape)
    X = search._table(SPHERE, T)
    with no_fraction_patterns():
        cand = [np.concatenate(c) for c in zip([np.zeros(0, np.int64)] * 5, *(
            c for c, _, _ in search._scan(X, domain, search.CLOSURES["zonal"],
                                          skip, unpruned(patterns))))]
    at = np.array(picks, dtype=np.int64) % max(cand[0].size, 1)
    if not cand[0].size:
        at = at[:0]
    check_integer_terms(X, domain, patterns, cand,
                        [c[at] for c in cand[:4]])


@pytest.mark.parametrize("patterns", ["sum", "all"])
def test_integer_terms_past_the_int64_table(patterns):
    """A member with n = 500 grows the table past the float-exact bound,
    so the terms are Python integers: the build of candidates with that
    member and the ties of its donor pairs against the Fraction forms,
    and the bridge search over those pairs against the per-pair oracle."""
    domain = SpectralDomain(12, "triangular")
    far = WaveVector(3, 500)
    X = search._table(SPHERE, 12, [far])
    assert X.dtype == object and X.shape == (13, 501)
    modes = np.array([k for k in domain.modes() if k.m + far.m <= 12]).T
    m1, n1 = np.repeat(modes, 4, axis=1)
    n3 = np.tile([far.m + 1, 12, 499, 500], modes.shape[1])
    far_m, far_n = np.full_like(m1, far.m), np.full_like(m1, far.n)
    check_integer_terms(X, domain, patterns, (m1, n1, far_m, far_n, n3),
                        (m1, n1, far_m, far_n))
    ks = [WaveVector(1, 2), far, WaveVector(4, 400)]
    seed = _candidate_triad(*ks, tuple(eval_frequency(SPHERE, k).omega
                                       for k in ks), patterns)
    check_every_donor_pair(SPHERE, domain, "zonal", patterns, "none", [seed])


@contextlib.contextmanager
def counted_fractions():
    """The number of Fractions made inside the block, as a one-element
    list."""
    made, new = [0], Fraction.__new__

    def counting(cls, *args, **kw):
        made[0] += 1
        return new(cls, *args, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fraction, "__new__", staticmethod(counting))
        yield made


@pytest.mark.parametrize("shape", ["square", "triangular"])
@pytest.mark.parametrize("patterns", ["sum", "all"])
def test_exact_build_makes_one_fraction_a_row(shape, patterns):
    """On the exact table ``_build`` makes one Fraction a row, its Omega:
    the members' frequencies are not columns but are read from the table,
    once per distinct mode, when triads or text are made."""
    domain = SpectralDomain(12, shape)
    X = search._table(SPHERE, 12)
    cand = [np.concatenate(c) for c in zip(*(
        c for c, _, _ in search._scan(X, domain, search.CLOSURES["zonal"],
                                      True, unpruned(patterns))))]
    with counted_fractions() as made:
        cols = triad._build(X, patterns, cand)
    assert len(cols) == cand[0].size > 0
    assert made == [len(cols)]


# -- the classifier: the Triad-based passive pass -----------------------------

def n_rule(closure, n_selection):
    parity = closure == "zonal" and n_selection in ("parity", "both")
    triangle = closure == "zonal" and n_selection in ("triangle", "both")
    return lambda n1, n2, n3: (
        not (parity and (n1 + n2 + n3) % 2 == 0)
        and not (triangle and not abs(n1 - n2) < n3 < n1 + n2))


def _pairs(t):
    k1, k2, k3 = t.members()
    return [frozenset((k1, k2)), frozenset((k1, k3)), frozenset((k2, k3))]


def triad_partition(domain, seeds, bridges, ari, passes):
    """The passive pass over Triads that the array classifier replaced:
    every approximate-resonance triad that passes the n-selection and has
    no pair inside a resonant seed makes its members passive, at its
    |Omega| (as a float) unless a smaller one comes."""
    resonant_pairs = {p for t in seeds for p in _pairs(t)}
    assignments = {k: ModeAssignment(k, NEUTRAL) for k in domain.modes()}

    def touch(k, om):
        a = assignments[k]
        v = abs(float(om))
        if a.min_abs_discrepancy is None or v < a.min_abs_discrepancy:
            a.min_abs_discrepancy = v

    passive = set()
    for t in ari:
        if not passes(t.k1.n, t.k2.n, t.k3.n):
            continue
        if any(p in resonant_pairs for p in _pairs(t)):
            continue
        for k in t.members():
            passive.add(k)
            touch(k, t.discrepancy)
    for t in seeds:
        for k in t.members():
            a = assignments[k]
            a.mode_class = ACTIVE
            a.evidence.append(t)
            a.min_abs_discrepancy = 0.0
    for step in bridges:
        a = assignments[step.bridge_wave]
        a.mode_class = ACTIVE
        a.evidence.append(step)
        touch(step.bridge_wave, step.bridge_discrepancy)
    for k in passive:
        if assignments[k].mode_class != ACTIVE:
            assignments[k].mode_class = PASSIVE
    return assignments


def _evidence(e):
    if isinstance(e, CascadeStep):
        return (fields([e.source_triad]), e.donor_pair, e.bridge_wave,
                _num(e.bridge_discrepancy))
    return fields([e])


def assignments_fields(assignments):
    return [(k, a.mode, a.mode_class,
             None if a.min_abs_discrepancy is None
             else _num(a.min_abs_discrepancy),
             [_evidence(e) for e in a.evidence])
            for k, a in assignments.items()]


def partition_fields(part):
    return (fields(part.resonant_triads),
            [_evidence(s) for s in part.bridges],
            assignments_fields(part.assignments))


# -- the classifier: the per-pair bridge search the array pass replaced -------

def oracle_both_completions(ka, kb, domain, patterns):
    """ka + kb; under any sign pattern also ka - kb and kb - ka."""
    ks = [WaveVector(ka.m + kb.m, ka.n + kb.n)]
    if patterns == "all":
        ks += [WaveVector(ka.m - kb.m, ka.n - kb.n),
               WaveVector(kb.m - ka.m, kb.n - ka.n)]
    return [k for k in ks if k in domain]


def oracle_zonal_completions(ka, kb, domain, patterns):
    """Every n3 at m3 = ma + mb; under any sign pattern also at
    m3 = |ma - mb|."""
    T = domain.truncation
    ms = ((ka.m + kb.m,) if patterns == "sum"
          else (ka.m + kb.m, abs(ka.m - kb.m)))
    for m in ms:
        if 1 <= m <= T:
            for n in range(m if domain.shape == "triangular" else 1, T + 1):
                yield WaveVector(m, n)


ORACLE_COMPLETIONS = {
    "both": oracle_both_completions,
    "zonal": oracle_zonal_completions,
    # on a square domain every completion within 1..T is a mode
    "box": lambda ka, kb, domain, patterns:
        oracle_completions(ka, kb, domain.truncation),
}


def _nan_least_residual(ws, patterns):
    """Whether the least |residual| of the frequencies ``ws`` over the sign
    patterns is NaN, as IEEE minimum makes it when any residual is: a NaN
    member, or inf - inf from a donor pair's two infinite members."""
    return isinstance(ws[2], float) and any(
        math.isnan(s1 * ws[0] + s2 * ws[1] + s3 * ws[2])
        for s1, s2, s3 in SIGN_PATTERNS[:3 if patterns == "all" else 1])


def oracle_minimal_bridge(domain, triad, donor_pair, patterns, closure,
                          passes, freqs):
    """The minimal bridge of one donor pair, completion by completion, on
    the scalar frequencies of the memo ``freqs``; a completion whose least
    |residual| is NaN is skipped."""
    ka, kb = donor_pair
    members = set(triad.members())
    wa, wb = freqs[ka], freqs[kb]
    best = None
    for w in ORACLE_COMPLETIONS[closure](ka, kb, domain, patterns):
        if w in members or not passes(ka.n, kb.n, w.n):
            continue
        ws = (wa, wb, freqs[w])
        if _nan_least_residual(ws, patterns):  # skip the completion only
            continue
        om, _ = _residual(ws, patterns)
        # A resonant completion is no near one, by the triad's own rule:
        # a rational zero, or on floats d <= NUMERIC_EXACT_D (numerically
        # exact: rounding-level residue of rational-valued dispersions).
        if (om == 0 if isinstance(om, Fraction) else
                abs(om) / min(map(abs, ws)) <= NUMERIC_EXACT_D):
            continue
        key = (abs(om), w)
        if best is None or key < best[0]:
            best = (key, w, om)
    if best is None:
        return None
    _, w, om = best
    return CascadeStep(triad, (ka, kb), w, om)


def _oracle_convention(spec, closure, n_selection):
    if closure == "auto":
        closure = "zonal" if spec.exactness else "both"
    return closure, n_rule(closure, n_selection), FrequencyMemo(spec)


def _step_key(step):
    return (abs(step.bridge_discrepancy), step.bridge_wave)


def oracle_select_bridges(spec, domain, seeds, omega_max, patterns="sum",
                          closure="auto", n_selection="none",
                          bridge_mode="per_pair", freqs=None):
    """The bridges the classifier admits, searched pair by pair on the
    frequencies ``freqs`` (a mapping from modes), by default the spec's."""
    closure, passes, memo = _oracle_convention(spec, closure, n_selection)
    freqs = memo if freqs is None else freqs
    steps = []
    for t in seeds:
        found = [s for s in (oracle_minimal_bridge(
                     domain, t, pair, patterns, closure, passes, freqs)
                     for pair in classify._triad_pairs(t))
                 if s is not None and abs(s.bridge_discrepancy) <= omega_max]
        if bridge_mode == "per_pair":
            steps.extend(found)
        elif found:
            steps.append(min(found, key=_step_key))
    return steps


def oracle_cascade_path(spec, domain, seed, depth, patterns="sum",
                        closure="auto", n_selection="none", freqs=None):
    """The cascade, level by level from the per-pair bridges, on the
    frequencies ``freqs`` (a mapping from modes), by default the spec's."""
    closure, passes, memo = _oracle_convention(spec, closure, n_selection)
    freqs = memo if freqs is None else freqs
    visited = {frozenset(seed.members())}
    current = seed
    steps = []
    for _ in range(int(depth)):
        found = [s for s in (oracle_minimal_bridge(domain, current, pair,
                                                   patterns, closure, passes,
                                                   freqs)
                             for pair in classify._triad_pairs(current))
                 if s is not None]
        if not found:
            break
        step = min(found, key=_step_key)
        steps.append(step)
        ks = sorted((*step.donor_pair, step.bridge_wave))
        ws = tuple(freqs[k] for k in ks)
        om, signs = _residual(ws, patterns)
        d = abs(float(om)) / min(abs(float(w)) for w in ws)
        nxt = Triad(*ks, ws, om, d, signs)
        sig = frozenset(nxt.members())
        if sig in visited:
            break
        visited.add(sig)
        current = nxt
    return steps


def scalar_cascade_path(spec, domain, seed, depth, patterns="sum",
                        closure="auto", n_selection="none"):
    """cascade_path as it was with its own scalar copy of the sign-pattern
    rule: the array bridge search's steps, each next triad rebuilt on the
    kernel table by the first least residual and d = |Omega| / min |w|."""
    rule = search._dispatch(spec, domain, closure, patterns)
    passes = classify._n_rule(rule, n_selection)
    X = search._table(spec, domain.truncation, seed.members())
    residuals = search.RESIDUALS[:3 if patterns == "all" else 1]
    visited = {frozenset(seed.members())}
    current = seed
    steps = []
    for _ in range(int(depth)):
        found = [s for s in classify._minimal_bridges(
                     X, domain, rule, passes, patterns,
                     [(current, *pair) for pair in
                      classify._triad_pairs(current)])
                 if s is not None]
        if not found:
            break
        step = min(found, key=_step_key)
        steps.append(step)
        ks = sorted((*step.donor_pair, step.bridge_wave))
        if frozenset(ks) in visited:
            break
        visited.add(frozenset(ks))
        m, n = np.array(ks).T
        ws = tuple(triad._omegas(X, m, X[m, n]).tolist())
        om, i = min(((r(*ws), i) for i, r in enumerate(residuals)),
                    key=lambda p: abs(p[0]))
        d = abs(float(om)) / min(abs(float(w)) for w in ws)
        current = Triad(*ks, ws, om, d, SIGN_PATTERNS[i])
    return steps


def oracle_candidates(spec, domain, closure, patterns, skip):
    """Every closed candidate as a Triad in scan order: on floats from
    the grid values (the pair loop), on the sphere from Fractions."""
    if spec.exactness:
        return [_candidate_triad(k1, k2, k3, ws, patterns) for
                k1, k2, k3, ws, _ in sphere_candidates(domain, skip)]
    return pair_oracle(spec, domain, closure, d_max=math.inf,
                       patterns=patterns, scalar_rebuild=False,
                       skip_equal_n_pairs=skip)


def check_partition(spec, domain, omega_max, closure, patterns, n_selection,
                    bridge_mode, skip, cands):
    """classify_modes against the Triad-based pass fed by the oracle
    candidates ``cands``."""
    passes = n_rule(closure, n_selection)
    seeds = [t for t in cands if t.d_ratio <= NUMERIC_EXACT_D]
    if not spec.exactness:  # grid decision, then the scalar rebuild
        seeds = [_candidate_triad(*t.members(), tuple(
                     eval_frequency(spec, k).omega for k in t.members()),
                     patterns) for t in seeds]
    seeds = sorted((t for t in seeds if t.is_exact
                    and passes(t.k1.n, t.k2.n, t.k3.n)), key=Triad.key)
    bridges = oracle_select_bridges(spec, domain, seeds, omega_max, patterns,
                                    closure, n_selection, bridge_mode)
    ari = [t for t in cands
           if t.discrepancy != 0 and abs(t.discrepancy) <= omega_max]
    part = classify_modes(spec, domain, omega_max, patterns=patterns,
                          closure=closure, n_selection=n_selection,
                          bridge_mode=bridge_mode, skip_equal_n_pairs=skip)
    assert partition_fields(part) == (
        fields(seeds), [_evidence(s) for s in bridges],
        assignments_fields(triad_partition(domain, seeds, bridges, ari,
                                           passes)))
    return part


CLOSURE_SHAPES = [("both", "square"), ("zonal", "square"),
                  ("zonal", "triangular"), ("box", "square")]


@given(spec=st.sampled_from(FLOAT_SPECS + [SPHERE]), T=st.integers(1, 9),
       patterns=st.sampled_from(["sum", "all"]),
       n_selection=st.sampled_from(["none", "parity", "triangle", "both"]),
       bridge_mode=st.sampled_from(["per_pair", "per_triad"]),
       skip=st.booleans(), data=st.data())
def test_classifier_matches_triad_pass(spec, T, patterns, n_selection,
                                       bridge_mode, skip, data):
    """Full partitions (class, min_abs_discrepancy bits and type,
    evidence, seeds, bridges) over the kinds and their closures, with
    omega_max drawn at a candidate's |Omega|: on the sphere that is often
    a float below its rational, decided on Fractions."""
    closure, shape = data.draw(st.sampled_from(
        CLOSURE_SHAPES[1:3] if spec.exactness else CLOSURE_SHAPES),
        label="closure, shape")
    domain = SpectralDomain(T, shape)
    cands = oracle_candidates(spec, domain, closure, patterns, skip)
    values = sorted({float(abs(t.discrepancy)) for t in cands
                     if t.discrepancy}) or [1.0]
    omega_max = data.draw(st.sampled_from(values), label="omega_max")
    check_partition(spec, domain, omega_max, closure, patterns, n_selection,
                    bridge_mode, skip, cands)


def steps_fields(steps):
    return [None if s is None else _evidence(s) for s in steps]


def test_bridges_are_admitted_on_their_exact_omega():
    """The classifier admits and ranks bridges on their rational |Omega|,
    as its walk decides hits: on the sphere at T=10 the bridge [7,8] of
    |Omega| 49/180 lies above omega_max = float(49/180), which is below
    the rational it rounds."""
    domain, omega_max = SpectralDomain(10, "triangular"), 49 / 180
    assert Fraction(49, 180) > omega_max
    convention = dict(classify.SPHERE_TABLE_CONVENTION, bridge_mode="per_pair")
    part = classify_modes(SPHERE, domain, omega_max, **convention)
    assert all(abs(s.bridge_discrepancy) <= omega_max for s in part.bridges)
    assert steps_fields(part.bridges) == steps_fields(oracle_select_bridges(
        SPHERE, domain, part.resonant_triads, omega_max, **convention))
    wider = classify_modes(SPHERE, domain, 0.3, **convention)
    assert [s.bridge_wave for s in wider.bridges
            if abs(s.bridge_discrepancy) == Fraction(49, 180)] == [
                WaveVector(7, 8)]


def check_every_donor_pair(spec, domain, closure, patterns, n_selection,
                           triads):
    """The array bridge search over every donor pair of ``triads`` in one
    call, on a table that covers their members, and
    ``minimal_near_resonant`` on each pair of a resonant one, against the
    per-pair oracle."""
    donors = [(t, *pair) for t in triads for pair in classify._triad_pairs(t)]
    rule = search._dispatch(spec, domain, closure, patterns)
    got = classify._minimal_bridges(
        search._table(spec, domain.truncation,
                      [k for t in triads for k in t.members()]), domain, rule,
        classify._n_rule(rule, n_selection), patterns, donors)
    _, passes, freqs = _oracle_convention(spec, closure, n_selection)
    want = steps_fields(oracle_minimal_bridge(
        domain, t, (ka, kb), patterns, closure, passes, freqs)
        for t, ka, kb in donors)
    assert steps_fields(got) == want
    exact = [i for i, (t, _, _) in enumerate(donors) if t.is_exact]
    assert steps_fields(minimal_near_resonant(
        spec, domain, donors[i][0], donors[i][1:], patterns, closure,
        n_selection) for i in exact) == [want[i] for i in exact]


@given(spec=st.sampled_from(FLOAT_SPECS + [SPHERE]), T=st.integers(1, 9),
       patterns=st.sampled_from(["sum", "all"]),
       n_selection=st.sampled_from(["none", "parity", "triangle", "both"]),
       bridge_mode=st.sampled_from(["per_pair", "per_triad"]),
       skip=st.booleans(), depth=st.integers(1, 4),
       closure_at=st.integers(0, 3), q=st.floats(0, 1),
       picks=st.lists(st.integers(0, 2 ** 16), max_size=12))
# Sphere bridges at m3 = |ma - mb|, which only patterns="all" reads: the
# drawn triads [1,1][1,3][2,4] and [1,1][2,4][3,3] have the donor pairs
# (1,1)+(2,4), (1,3)+(2,4) and (2,4)+(3,3), which complete at m3 = 1, and
# (1,1)+(3,3), at m3 = 2.
@example(spec=SPHERE, T=6, patterns="all", n_selection="none",
         bridge_mode="per_pair", skip=True, depth=3, closure_at=1, q=0.5,
         picks=[7, 33])
def test_bridge_search_matches_per_pair_oracle(spec, T, patterns, n_selection,
                                               bridge_mode, skip, depth,
                                               closure_at, q, picks):
    """The array bridge search against the per-pair one, step by step
    (source triad, donor pair, wave, signed discrepancy and its type):
    the classifier's admitted bridges, cascades from its seeds, and the
    bridge of every donor pair of drawn candidate triads, resonant or
    not, whatever its |Omega|.  Cascades two levels deeper (depth >= 3)
    equal those of the scalar next-triad rebuild.  The draws pick the
    closure and shape (zonal on the exact path), omega_max among the
    candidates' nonzero |Omega|, and the candidate triads."""
    shapes = CLOSURE_SHAPES[1:3] if spec.exactness else CLOSURE_SHAPES
    closure, shape = shapes[closure_at % len(shapes)]
    domain = SpectralDomain(T, shape)
    cands = oracle_candidates(spec, domain, closure, patterns, skip)
    values = sorted({float(abs(t.discrepancy)) for t in cands
                     if t.discrepancy}) or [1.0]
    omega_max = values[int(q * (len(values) - 1))]
    convention = dict(patterns=patterns, closure=closure,
                      n_selection=n_selection)
    part = classify_modes(spec, domain, omega_max, bridge_mode=bridge_mode,
                          skip_equal_n_pairs=skip, **convention)
    assert steps_fields(part.bridges) == steps_fields(oracle_select_bridges(
        spec, domain, part.resonant_triads, omega_max,
        bridge_mode=bridge_mode, **convention))
    for seed in part.resonant_triads[:3]:
        assert steps_fields(cascade_path(spec, domain, seed, depth,
                                         **convention)) == \
            steps_fields(oracle_cascade_path(spec, domain, seed, depth,
                                             **convention))
        assert steps_fields(cascade_path(spec, domain, seed, depth + 2,
                                         **convention)) == \
            steps_fields(scalar_cascade_path(spec, domain, seed, depth + 2,
                                             **convention))
    triads = [cands[i % len(cands)] for i in picks] if cands else []
    check_every_donor_pair(spec, domain, closure, patterns, n_selection,
                           triads)


@pytest.mark.parametrize("spec, shape", [(SPHERE, "triangular"),
                                         (DispersionSpec("capillary"),
                                          "square")])
@pytest.mark.parametrize("patterns", ["sum", "all"])
def test_bridge_ties_break_on_the_least_wave(spec, shape, patterns):
    """Every donor pair of every zonal candidate at T = 6.  Pairs of equal
    m have completions of equal |Omega|: on the sphere (1,2)+(1,3) is
    1/6 from both (2,2) and (2,3), and the least wave (2,2) wins."""
    domain = SpectralDomain(6, shape)
    check_every_donor_pair(spec, domain, "zonal", patterns, "none",
                           oracle_candidates(spec, domain, "zonal", patterns,
                                             False))


def corrupted_bridges(spec, domain, closure, patterns, cell, triads):
    """The array bridge search over every donor pair of ``triads`` on the
    grid with the corrupted ``cell``, and the per-pair oracle on the same
    frequencies, as step fields."""
    donors = [(t, *pair) for t in triads for pair in classify._triad_pairs(t)]
    with np.errstate(invalid="ignore", over="ignore"), \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "omega_grid", corrupted_grid(cell))
        rule = search._dispatch(spec, domain, closure, patterns)
        got = classify._minimal_bridges(
            search._table(spec, domain.truncation), domain, rule,
            classify._n_rule(rule, "none"), patterns, donors)
    _, passes, freqs = _oracle_convention(spec, closure, "none")
    T = domain.truncation
    freqs[WaveVector(cell[0] % T + 1, cell[1] % T + 1)] = cell[2]
    with np.errstate(invalid="ignore", over="ignore"):
        want = [oracle_minimal_bridge(domain, t, (ka, kb), patterns, closure,
                                      passes, freqs) for t, ka, kb in donors]
    return steps_fields(got), steps_fields(want)


def test_nan_completion_keeps_its_pairs_bridge():
    """On the bve square (squared form) at T = 12 the donor pair
    ([1,2], [2,4]) of the seed [1,2][2,4][3,1] bridges at [3,2]; a NaN at
    the completion (3,3) once hid that bridge (the pair's least |Omega|
    became NaN), and is now skipped on its own."""
    spec = DispersionSpec("bve_plane", plane_form="squared")
    domain = SpectralDomain(12)
    ks = (WaveVector(1, 2), WaveVector(2, 4), WaveVector(3, 1))
    seed = _candidate_triad(*ks, tuple(eval_frequency(spec, k).omega
                                       for k in ks), "sum")
    assert seed.is_exact
    got, want = corrupted_bridges(spec, domain, "zonal", "sum",
                                  (2, 2, math.nan), [seed])
    assert got == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "omega_grid", corrupted_grid((2, 2, math.nan)))
        step = minimal_near_resonant(spec, domain, seed, ks[:2], "sum",
                                     "zonal")
    assert step.bridge_wave == WaveVector(3, 2)
    assert step.abs_discrepancy == pytest.approx(0.0692, abs=1e-4)


@given(spec=st.sampled_from(FLOAT_SPECS), T=st.integers(1, 12),
       closure_at=st.integers(0, 3), patterns=st.sampled_from(["sum", "all"]),
       cell=CORRUPT_CELLS,
       picks=st.lists(st.integers(0, 2 ** 16), min_size=1, max_size=8))
@example(spec=DispersionSpec("capillary"), T=2, closure_at=1,
         patterns="all", cell=(0, 0, math.inf), picks=[0])
def test_bridge_search_on_corrupted_grids(spec, T, closure_at, patterns, cell,
                                          picks):
    """The bridge of every donor pair of drawn candidate triads on a grid
    with one NaN, inf, -inf or 1e308 cell, against the per-pair oracle on
    the same frequencies: a NaN completion is skipped, not its pair.  The
    example's self-pair (1,1)+(1,1) reads the inf cell twice, so two of
    the sign patterns give its completions inf - inf."""
    closure, shape = CLOSURE_SHAPES[closure_at % len(CLOSURE_SHAPES)]
    domain = SpectralDomain(T, shape)
    cands = oracle_candidates(spec, domain, closure, patterns, False)
    assume(cands)
    got, want = corrupted_bridges(spec, domain, closure, patterns, cell,
                                  [cands[i % len(cands)] for i in picks])
    assert got == want


def corrupted_walk_oracle(W, domain, closure, patterns, passes, skip):
    """The walk's seeds, and every candidate of nonzero |Omega| that is no
    NaN, as Triads on the grid W, candidate by candidate in scan order, by
    README's rules for non-finite cells: |Omega| is the least |residual|
    over the sign patterns, NaN when any residual is (IEEE minimum), and a
    candidate that passes the n-selection is a seed when
    d = |Omega| / min |w| <= NUMERIC_EXACT_D, and a hit when
    0 < |Omega| <= omega_max; one of NaN or infinite |Omega| is neither."""
    w = W.tolist()
    seeds, near = [], []
    for ks in closed_candidates(domain, closure, skip):
        ws = tuple(w[k.m][k.n] for k in ks)
        if not passes(*(k.n for k in ks)) or _nan_least_residual(ws,
                                                                 patterns):
            continue
        t = _candidate_triad(*ks, ws, patterns)
        if t.d_ratio <= NUMERIC_EXACT_D:
            seeds.append(t)
        if t.discrepancy != 0:
            near.append(t)
    return seeds, near


@given(spec=st.sampled_from(FLOAT_SPECS), T=st.integers(1, 12),
       closure_at=st.integers(0, 3), patterns=st.sampled_from(["sum", "all"]),
       n_selection=st.sampled_from(["none", "parity", "triangle", "both"]),
       bridge_mode=st.sampled_from(["per_pair", "per_triad"]),
       skip=st.booleans(), cell=CORRUPT_CELLS, q=st.floats(0, 1))
def test_classifier_on_corrupted_grids(spec, T, closure_at, patterns,
                                       n_selection, bridge_mode, skip, cell,
                                       q):
    """The walk's seeds and hits, and the partition, on a grid with one
    NaN, inf, -inf or 1e308 cell, against the per-candidate oracle on the
    same frequencies, with omega_max drawn among its finite |Omega|: no
    candidate of NaN or infinite |Omega| is a seed or a hit, and each is
    dropped on its own, never its block."""
    closure, shape = CLOSURE_SHAPES[closure_at % len(CLOSURE_SHAPES)]
    domain = SpectralDomain(T, shape)
    passes = n_rule(closure, n_selection)
    with np.errstate(invalid="ignore", over="ignore"), \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "omega_grid", corrupted_grid(cell))
        W = search._table(spec, T)
        seeds, near = corrupted_walk_oracle(W, domain, closure, patterns,
                                            passes, skip)
        values = sorted({abs(t.discrepancy) for t in near} - {math.inf})
        omega_max = values[int(q * (len(values) - 1))] if values else 1.0
        rule = search._dispatch(spec, domain, closure, patterns)
        got_seeds, hits = classify._walk(W, domain, rule,
                                         classify._n_rule(rule, n_selection),
                                         patterns, skip, omega_max)
        part = classify_modes(spec, domain, omega_max, patterns=patterns,
                              closure=closure, n_selection=n_selection,
                              bridge_mode=bridge_mode,
                              skip_equal_n_pairs=skip)
        w = W.tolist()
        freqs = {k: w[k.m][k.n] for k in domain.modes()}
        bridges = oracle_select_bridges(spec, domain, seeds, omega_max,
                                        patterns, closure, n_selection,
                                        bridge_mode, freqs)
    ari = [t for t in near if abs(t.discrepancy) <= omega_max]
    assert fields(got_seeds) == fields(seeds)
    assert hit_fields(hits) == abs_fields(ari)
    assert partition_fields(part) == (
        fields(seeds), [_evidence(s) for s in bridges],
        assignments_fields(triad_partition(domain, seeds, bridges, ari,
                                           passes)))


@pytest.mark.parametrize("spec, domain, closure, patterns, members", [
    (SPHERE, SpectralDomain(13, "triangular"), "zonal", "sum",
     ((4, 12), (5, 14), (9, 13))),
    (DispersionSpec("bve_plane", plane_form="squared"), SpectralDomain(15),
     "box", "all", ((1, 7), (15, 5), (16, 12)))], ids=["sphere", "bve-box"])
def test_bridges_of_donors_past_the_truncation(spec, domain, closure,
                                               patterns, members):
    """A resonant triad with a member past the truncation: the bridges of
    its donor pairs, completed in the domain only, and the cascades from
    it against the per-pair oracle (the table once stopped at the
    truncation and raised IndexError)."""
    ks = [WaveVector(*k) for k in members]
    seed = _candidate_triad(*ks, tuple(eval_frequency(spec, k).omega
                                       for k in ks), patterns)
    assert seed.is_exact and max(max(k) for k in ks) > domain.truncation
    check_every_donor_pair(spec, domain, closure, patterns, "none", [seed])
    for depth in (1, 3):
        assert steps_fields(cascade_path(spec, domain, seed, depth, patterns,
                                         closure)) == \
            steps_fields(oracle_cascade_path(spec, domain, seed, depth,
                                             patterns, closure))


#: Float kinds and closures with seeds (numerically exact triads) at
#: T = 8 to 12: the bve plane, under zonal and box closure.
SEEDED = [(DispersionSpec("bve_plane"), "zonal", "square"),
          (DispersionSpec("bve_plane"), "zonal", "triangular"),
          (DispersionSpec("bve_plane"), "box", "square"),
          (DispersionSpec("bve_plane", plane_form="squared"), "zonal",
           "square"),
          (DispersionSpec("bve_plane", plane_form="squared",
                          basin=BasinGeometry("rectangle", 1.0, 4.0)),
           "zonal", "triangular")]


@given(case=st.sampled_from(SEEDED), T=st.integers(8, 12),
       patterns=st.sampled_from(["sum", "all"]), cell=CORRUPT_CELLS,
       pick=st.integers(0, 2 ** 16), depth=st.integers(1, 6))
@example(case=SEEDED[3], T=12, patterns="sum", cell=(2, 2, math.nan),
         pick=1, depth=6)
def test_cascade_on_corrupted_grids(case, T, patterns, cell, pick, depth):
    """cascade_path on a grid with one NaN, inf, -inf or 1e308 cell, from
    a seed resonant on that grid, against the per-pair bridge oracle level
    by level on the same frequencies: a NaN completion is skipped, not its
    pair, and each next triad carries the grid's values.  The example's
    NaN at (3, 3) once hid the first bridge of the seed [1,2][2,4][3,1]."""
    spec, closure, shape = case
    domain = SpectralDomain(T, shape)
    with np.errstate(invalid="ignore", over="ignore"), \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "omega_grid", corrupted_grid(cell))
        W = search._table(spec, T)
        seeds, _ = corrupted_walk_oracle(W, domain, closure, patterns,
                                         n_rule(closure, "none"), False)
        assume(seeds)
        seed = seeds[pick % len(seeds)]
        got = cascade_path(spec, domain, seed, depth, patterns, closure)
        w = W.tolist()
        want = oracle_cascade_path(spec, domain, seed, depth, patterns,
                                   closure, freqs={k: w[k.m][k.n] for k in
                                                   domain.modes()})
    assert steps_fields(got) == steps_fields(want)


@pytest.mark.parametrize("spec, domain, closure, patterns, members", [
    (SPHERE, SpectralDomain(20, "triangular"), "zonal", "sum",
     ((4, 12), (5, 14), (9, 13))),
    (SPHERE, SpectralDomain(20, "triangular"), "zonal", "all",
     ((4, 12), (5, 14), (9, 13))),
    (DispersionSpec("bve_plane", plane_form="squared"), SpectralDomain(15),
     "box", "all", ((1, 7), (15, 5), (16, 12)))],
    ids=["sphere-sum", "sphere-all", "bve-box"])
def test_cascade_matches_the_scalar_rebuild(spec, domain, closure, patterns,
                                            members):
    """Six levels from a resonant seed: every step (its source triad field
    by field, donor pair, wave and signed discrepancy) equals the scalar
    next-triad rebuild's, over at least three levels (the sum pattern's
    sphere path stops at a repeated triad after three)."""
    ks = [WaveVector(*k) for k in members]
    seed = _candidate_triad(*ks, tuple(eval_frequency(spec, k).omega
                                       for k in ks), patterns)
    got = cascade_path(spec, domain, seed, 6, patterns, closure)
    assert len(got) >= 3
    assert steps_fields(got) == steps_fields(scalar_cascade_path(
        spec, domain, seed, 6, patterns, closure))


def test_far_donor_grows_each_table_axis_to_its_reach():
    """A resonant triad of the bve square, (12,109)+(1986,2) -> (1998,222)
    under zonal closure, reaches m = 1998 but n = 222 only.  The bridge
    search at T = 15 reads a table grown to that reach on each axis, so its
    tracemalloc peak stays under 16 MB (10.8 MB measured with numpy 2.4.6;
    a square table to m = 1998 peaked at 96 MB), and its bridges and
    cascades equal the per-pair oracle's."""
    spec, domain = DispersionSpec("bve_plane", plane_form="squared"), \
        SpectralDomain(15)
    ks = [WaveVector(12, 109), WaveVector(1986, 2), WaveVector(1998, 222)]
    seed = _candidate_triad(*ks, tuple(eval_frequency(spec, k).omega
                                       for k in ks), "all")
    assert seed.is_exact
    X = search._table(spec, 15, ks)
    assert X.shape == (1999, 223)
    assert X[:16, :16].tobytes() == omega_grid(spec, 15).tobytes()
    assert [float.hex(X[k]) for k in ks] == [float.hex(w) for w in seed.omegas]
    minimal_near_resonant(spec, domain, seed, ks[1:], "all", "zonal")
    tracemalloc.start()
    try:
        step = minimal_near_resonant(spec, domain, seed, ks[1:], "all",
                                     "zonal")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert step.bridge_wave == WaveVector(12, 15)
    assert peak < 16e6
    check_every_donor_pair(spec, domain, "zonal", "all", "none", [seed])
    for depth in (1, 3):
        assert steps_fields(cascade_path(spec, domain, seed, depth, "all",
                                         "zonal")) == \
            steps_fields(oracle_cascade_path(spec, domain, seed, depth,
                                             "all", "zonal"))


@pytest.mark.parametrize("pair", ["k1 k2", "k1 k3", "k2 k3"])
def test_passive_pass_drops_hits_with_a_resonant_pair(pair):
    """A hit sharing any one of its pairs with a seed makes no mode
    passive; a hit sharing none does, at its |Omega|.  Hand-made hits
    (m1, n1, m2, n2, n3) around the seed (1,1)+(2,2)->(3,3), because small
    spectra rarely have the (k1, k3) and (k2, k3) cases."""
    seed = Triad(WaveVector(1, 1), WaveVector(2, 2), WaveVector(3, 3),
                 (0.0, 0.0, 0.0), 0.0, 0.0)
    shared = {"k1 k2": (1, 1, 2, 2, 5), "k1 k3": (1, 1, 2, 6, 3),
              "k2 k3": (1, 7, 2, 2, 3)}[pair]
    m1, n1, m2, n2, n3 = (np.array(c, dtype=np.int64)
                          for c in zip(shared, (1, 4, 2, 5, 6)))
    hits = (m1, n1, m2, n2, n3, np.array([0.25, 0.5]))
    least = classify._passive_minima(SpectralDomain(9), [seed], hits)
    touched = np.flatnonzero(~np.isnan(least))  # keys m (T + 1) + n
    assert [(WaveVector(*divmod(k, 10)), v) for k, v in zip(
        touched.tolist(), least[touched].tolist())] == [
        (WaveVector(1, 4), 0.5), (WaveVector(2, 5), 0.5),
        (WaveVector(3, 6), 0.5)]


def reference_passive_minima(domain, seeds, hits) -> np.ndarray:
    """classify._passive_minima as it was before it marked the seeds'
    members: the seed-pair lookup runs on every hit."""
    m1, n1, m2, n2, n3, a = hits
    T1 = domain.truncation + 1  # mode key m T1 + n, pair key lo T1^2 + hi
    resonant = np.array(sorted(
        (ka.m * T1 + ka.n) * T1 ** 2 + kb.m * T1 + kb.n
        for t in seeds for ka, kb in map(sorted, classify._triad_pairs(t)))
        or [-1])
    ks = (m1 * T1 + n1, m2 * T1 + n2, (m1 + m2) * T1 + n3)
    keep = np.ones(a.size, dtype=bool)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        p = np.minimum(ks[i], ks[j]) * T1 ** 2 + np.maximum(ks[i], ks[j])
        keep &= resonant[np.searchsorted(resonant, p) % resonant.size] != p
    least = np.full(T1 * T1, np.nan)
    for k in ks:
        np.fmin.at(least, k[keep], a[keep])
    return least


PLANE = DispersionSpec("bve_plane", plane_form="squared")
#: Drawn seeds (m1, n1, m2, n2, n3, self_pair); self_pair makes k2 = k1.
DRAWN_SEEDS = st.lists(st.tuples(*[st.integers(1, 12)] * 5, st.booleans()),
                       max_size=4)
#: Drawn hits (form, a, b, n, |Omega|, repeat) on the pool of seed members
#: then domain modes, a and b taken modulo its size.  Form 0: k1 = pool[a],
#: k2 = pool[b] (pool[a] if repeat), k3 = (m1 + m2, n); form 1: k3 =
#: pool[a], k1 = pool[b], k2 = (m3 - m1, n); form 2: k3 = pool[a], k2 =
#: pool[b], k1 = (m3 - m2, n).  Hits outside the m, n <= T square go.
DRAWN_HITS = st.lists(st.tuples(
    st.integers(0, 2), st.integers(0, 60), st.integers(0, 60),
    st.integers(1, 12), st.floats(1e-9, 1.0), st.booleans()), max_size=12)


def drawn_seeds_and_hits(domain, seeds, hits, drawn_seeds, drawn_hits):
    """The drawn seeds (see DRAWN_SEEDS) and the walk's ``seeds``, and
    the walk's ``hits`` with the drawn ones (see DRAWN_HITS) appended."""
    T, made, rows = domain.truncation, [], []
    for m1, n1, m2, n2, n3, self_pair in drawn_seeds:
        if self_pair:
            m2, n2 = m1, n1
        if m1 + m2 <= T and max(n1, n2, n3) <= T:
            made.append(Triad(WaveVector(m1, n1), WaveVector(m2, n2),
                              WaveVector(m1 + m2, n3), (0.0, 0.0, 0.0),
                              0.0, 0.0))
    seeds = made + seeds
    pool = [k for t in seeds for k in t.members()] + list(domain.modes())
    for form, a, b, n, v, repeat in drawn_hits:
        ka, kb = pool[a % len(pool)], pool[(a if repeat else b) % len(pool)]
        if form == 0:
            (m1, n1), (m2, n2), n3 = ka, kb, n
        elif form == 1:
            (m1, n1), (m2, n2), n3 = kb, (ka.m - kb.m, n), ka.n
        else:
            (m1, n1), (m2, n2), n3 = (ka.m - kb.m, n), kb, ka.n
        if min(m1, m2) >= 1 and max(m1 + m2, n1, n2, n3) <= T:
            rows.append((m1, n1, m2, n2, n3, v))
    if rows:
        hits = [np.concatenate((h, np.array(c, h.dtype)))
                for h, c in zip(hits, zip(*rows))]
    return seeds, hits


@settings(max_examples=100)
@given(spec=st.sampled_from([SPHERE, PLANE]) | pruning_specs(),
       T=st.integers(1, 12), shape=st.sampled_from(["square", "triangular"]),
       closure=st.sampled_from(["auto", "zonal", "box", "both"]),
       patterns=st.sampled_from(["sum", "all"]), skip=st.booleans(),
       omega_max=st.sampled_from([1e-3, 0.013, 0.1, 1.0]),
       drawn_seeds=DRAWN_SEEDS, drawn_hits=DRAWN_HITS)
# A float self-pair seed (1,2)+(1,2)->(2,5) and a seed (1,3)+(2,1)->(3,4):
# the hits (1,2)+(1,2)->(2,7), a repeated member holding the self pair,
# and (1,2)+(2,5)->(3,4), whose k1 k2 pair is the first seed's, go;
# (1,2)+(1,3)->(2,6), two members of different seeds, stays.
@example(spec=PLANE, T=8, shape="square", closure="box", patterns="all",
         skip=True, omega_max=1e-3,
         drawn_seeds=[(1, 2, 1, 2, 5, True), (1, 3, 2, 1, 4, False)],
         drawn_hits=[(0, 0, 0, 7, 1e-9, True), (0, 0, 2, 4, 2e-9, False),
                     (0, 0, 3, 6, 3e-9, False)])
# A seed (1,3)+(2,4)->(3,5) met through k3: (1,3)+(2,1)->(3,5) holds its
# k1 k3 pair and (1,1)+(2,4)->(3,5) its k2 k3 pair, so both go, each with
# exactly two seed-member positions; (1,3)+(1,3)->(2,6), a repeated
# member but no seed pair, stays.
@example(spec=SPHERE, T=10, shape="triangular", closure="zonal",
         patterns="sum", skip=True, omega_max=0.1,
         drawn_seeds=[(1, 3, 2, 4, 5, False)],
         drawn_hits=[(1, 2, 0, 1, 1e-9, False), (2, 2, 1, 1, 2e-9, False),
                     (0, 0, 0, 6, 3e-9, True)])
def test_passive_pass_matches_the_every_hit_lookup(spec, T, shape, closure,
                                                   patterns, skip, omega_max,
                                                   drawn_seeds, drawn_hits):
    """The passive pass that looks seed pairs up only for hits with at
    least two seed-member positions gives the least |Omega| of every mode,
    bit for bit and NaN where no hit is kept, as the lookup on every hit,
    on the walk's seeds and hits and on drawn ones: float self-pair seeds,
    hits with a repeated member, hits whose two seed members come from
    different seeds (no seed pair: the hit stays), and hits meeting seeds
    through any two positions."""
    domain = SpectralDomain(T, shape)
    try:
        rule = search._dispatch(spec, domain, closure, patterns)
    except UsageError:  # a closure the spec, patterns or shape refuses
        assume(False)
    seeds, hits = classify._walk(search._table(spec, T), domain, rule,
                                 classify._n_rule(rule, "none"), patterns,
                                 skip, omega_max)
    seeds, hits = drawn_seeds_and_hits(domain, seeds, hits, drawn_seeds,
                                       drawn_hits)
    got = classify._passive_minima(domain, seeds, hits)
    want = reference_passive_minima(domain, seeds, hits)
    assert list(map(float.hex, got.tolist())) == \
        list(map(float.hex, want.tolist()))


@pytest.mark.parametrize("T, rounding", [(8, "down"), (6, "up")])
def test_sphere_omega_max_tie_is_decided_on_fractions(T, rounding):
    """omega_max is the float of the least nonzero |Omega| at T.  At T = 8
    that float lies below the rational 1/1260, so no triad is within
    omega_max although its float |Omega| equals it; at T = 6 the float of
    1/210 lies above, and the least triads are in."""
    domain = SpectralDomain(T, "triangular")
    least = discrepancy_lower_bound(SPHERE, domain).finite_min.value
    omega_max = float(least)
    assert (Fraction(omega_max) < least) == (rounding == "down")
    cands = oracle_candidates(SPHERE, domain, "zonal", "sum", True)
    assert any(abs(t.discrepancy) == least for t in cands)
    want = [t for t in cands
            if t.discrepancy != 0 and abs(t.discrepancy) <= omega_max]
    assert bool(want) == (rounding == "up")
    assert hit_fields(ari_hits(SPHERE, domain, omega_max)) == abs_fields(want)
    part = check_partition(SPHERE, domain, omega_max, "zonal", "sum", "none",
                           "per_pair", True, cands)
    assert bool(part.modes_in_class(PASSIVE)) == (rounding == "up")


@given(T=st.integers(2, 9), shape=st.sampled_from(["triangular", "square"]),
       patterns=st.sampled_from(["sum", "all"]), skip=st.booleans(),
       cap=st.sampled_from([7, search._BLOCK]), q=st.floats(0.0, 1.0))
@example(T=8, shape="triangular", patterns="sum", skip=True, cap=7, q=0.0)
def test_walk_settles_its_ties_in_one_build(T, shape, patterns, skip, cap,
                                            q):
    """On the sphere, with omega_max the float |Omega| of a drawn
    candidate, so that hits tie with it (at T = 8 the least, whose
    rational lies above its float), the walk's hits are those of a
    Fraction oracle that decides every candidate exactly, in scan order.
    The walk builds twice, however many blocks (``cap``) its ties lie in:
    its seeds once, its ties once."""
    domain = SpectralDomain(T, shape)
    cands = oracle_candidates(SPHERE, domain, "zonal", patterns, skip)
    values = sorted({float(abs(t.discrepancy)) for t in cands
                     if t.discrepancy})
    assume(values)
    omega_max = values[int(q * (len(values) - 1))]
    want = [t for t in cands
            if t.discrepancy != 0 and abs(t.discrepancy) <= omega_max]
    with pytest.MonkeyPatch.context() as mp, build_calls(classify) as builds:
        mp.setattr(search, "_BLOCK", cap)
        hits = ari_hits(SPHERE, domain, omega_max, patterns, "zonal", skip)
    assert hit_fields(hits) == abs_fields(want)
    assert len(builds) == 2


# -- multi-row blocks against the per-row generators they replaced ---------------

def row_both_blocks(X, domain, skip_equal_n_pairs):
    """Pairs k1 <= k2 with k3 = k1 + k2 in the square: per k1 the box of
    :func:`_both_window` as two blocks of X, the rest of row m2 = m1 from
    k2 = k1 on, then the rows m2 > m1."""
    T = domain.truncation
    ar = np.arange(T + 1)  # read-only index grids: M[a, b] = a, N[a, b] = b
    M, N = (np.broadcast_to(x, (T + 1, T + 1)) for x in (ar[:, None], ar))
    for m1 in range(1, T // 2 + 1):
        for n1 in range(1, T):
            m_lo, m_hi, n_lo, n_hi = search._both_window(T, m1, n1)
            for a, b, c, d in ((m_lo, m_lo, n1, n_hi),
                               (m_lo + 1, m_hi, n_lo, n_hi)):
                if a <= b and c <= d:
                    win2 = (slice(a, b + 1), slice(c, d + 1))
                    win3 = (slice(m1 + a, m1 + b + 1),
                            slice(n1 + c, n1 + d + 1))
                    yield m1, n1, X[win2], X[win3], M[win2], N[win2], N[win3]


def row_zonal_blocks(X, domain, skip_equal_n_pairs):
    """Pairs k1 <= k2 (k1 < k2 on the exact table) with m3 = m1 + m2,
    each with every n3 of the domain: one ragged block per k1 row, in
    (k2, n3) order.  ``skip_equal_n_pairs`` leaves out the pairs
    n1 = n2."""
    T = domain.truncation
    self_pair = X.dtype == np.float64
    triangular = domain.shape == "triangular"
    modes = list(domain.modes())
    mm = np.array([k.m for k in modes], dtype=np.int64)
    nn = np.array([k.n for k in modes], dtype=np.int64)
    for i, (m1, n1) in enumerate(modes):
        if 2 * m1 > T:
            break
        # Modes come in m order, so the k2 with m2 <= T - m1 are a run.
        j, stop = i + (not self_pair), np.searchsorted(mm, T - m1, "right")
        m2, n2 = mm[j:stop], nn[j:stop]
        if skip_equal_n_pairs:
            keep = n2 != n1
            m2, n2 = m2[keep], n2[keep]
        if not m2.size:
            continue
        # Each pair takes n3 from n_lo to T.
        n_lo = m1 + m2 if triangular else np.ones_like(m2)
        counts = T + 1 - n_lo
        pair = np.repeat(np.arange(m2.size), counts)
        n3 = np.arange(pair.size) - np.repeat(np.cumsum(counts) - counts - n_lo,
                                              counts)
        m2, n2 = m2[pair], n2[pair]
        yield m1, n1, X[m2, n2], X[m1 + m2, n3], m2, n2, n3


def row_box_blocks(X, domain, skip_equal_n_pairs):
    """Box-closed candidates, one k1 row at a time, gathered by index
    arrays, with k3 in :func:`box_completions` order.

    Each unordered triple regenerates from any of its three pairs, so a
    candidate is emitted only from its two lexicographically smallest
    members: k1 < k2 < k3.  As k2 follows k1, m2 >= m1 and a completion
    with m3 = |m1 - m2| < m2 precedes k2; only m3 = m1 + m2 <= T remains,
    with n3 = |n1 - n2| then n1 + n2.
    """
    T = domain.truncation
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
        m2, n2, n3 = (np.repeat(m_all[i + 1:stop], 2)[keep],
                      np.repeat(n2, 2)[keep], n3[keep])
        yield m1, n1, X[m2, n2], X[m1 + m2, n3], m2, n2, n3


ROW_BLOCKS = {"both": row_both_blocks, "zonal": row_zonal_blocks,
              "box": row_box_blocks}


def flat_blocks(blocks):
    """Blocks (m1, n1, x2, x3, m2, n2, n3), k1 per block or per candidate,
    as per-candidate columns in scan order, and the block sizes."""
    cols, sizes = [], []
    for m1, n1, x2, x3, m2, n2, n3 in blocks:
        x2, x3, m2, n2, n3 = (np.broadcast_to(v, np.shape(x2)).ravel()
                              for v in (x2, x3, m2, n2, n3))
        cols.append([np.broadcast_to(m1, m2.shape), np.broadcast_to(
            n1, m2.shape), x2, x3, m2, n2, n3])
        sizes.append(m2.size)
    return [np.concatenate(c) for c in zip(*cols)] if cols else None, sizes


def row_scan(spec, domain, closure, patterns, skip):
    """(m1, n1, m2, n2, n3, |Omega|, min |w|) of every candidate, from the
    per-row blocks and the kernel steps with one k1 per block."""
    X = search._table(spec, domain.truncation)
    out = []
    for m1, n1, x2, x3, m2, n2, n3 in ROW_BLOCKS[closure](X, domain, skip):
        x2, x3, m2, n2, n3 = (np.broadcast_to(v, np.shape(x2)).ravel()
                              for v in (x2, x3, m2, n2, n3))
        a, amin = search._step(X, m1, n1, x2, x3, m2, m1 + m2, patterns, True)
        out.append([np.full(m2.size, m1), np.full(m2.size, n1), m2, n2, n3,
                    a, amin])
    return [np.concatenate(c) for c in zip(*out)] if out else None


def block_scan(spec, domain, closure, patterns, skip):
    """The same columns from ``search._scan``."""
    out = [[*cand, a, amin] for cand, a, amin in search._scan(
        search._table(spec, domain.truncation), domain,
        search.CLOSURES[closure], skip, unpruned(patterns))]
    return [np.concatenate(c) for c in zip(*out)] if out else None


def same_columns(got, want):
    """Equal columns: integers exactly, floats bit for bit (an ``object``
    column, of the Python-int table, by its values as float64)."""
    if got is None or want is None:
        return got is None and want is None
    return all(g.dtype == w.dtype and (g.astype(float) if g.dtype == object
                                       else g).tobytes() ==
               (w.astype(float) if w.dtype == object else w).tobytes()
               for g, w in zip(got, want))


def check_block_sizes(keys, sizes, cap):
    """Each block holds at most ``cap`` candidates or one row alone, and
    the next block's first row would not have fit; a row is a run of equal
    ``keys``: (m1, n1) for a k1 row, (m1, n1, m2) for a k2 row."""
    total = keys[0].size
    change = np.zeros(total - 1, bool)
    for key in keys:
        change |= np.diff(key) != 0
    row = np.r_[0, np.flatnonzero(change) + 1]
    row_size = np.diff(np.r_[row, total])
    at = 0
    for size in sizes:
        assert size and at in row  # whole rows, no empty block
        first = np.searchsorted(row, at)
        assert size <= cap or row_size[first] == size
        nxt = at + size
        if nxt < total:
            assert size + row_size[np.searchsorted(row, nxt)] > cap
        at = nxt
    assert at == total


@given(spec=st.sampled_from(FLOAT_SPECS + [SPHERE]), T=st.integers(1, 24),
       cap=st.sampled_from([1, 7, 2 ** 14]),
       patterns=st.sampled_from(["sum", "all"]), skip=st.booleans(),
       python_int=st.booleans(), data=st.data())
@example(spec=SPHERE, T=20, cap=7, patterns="sum", skip=True,
         python_int=False, data=None)
def test_multi_row_blocks_match_per_row_blocks(spec, T, cap, patterns, skip,
                                               python_int, data):
    """The closures' blocks, with their size cut at ``cap`` candidates
    (between k2 rows under ``both``, else between k1 rows), against the
    per-row generators they replaced: the candidates and table values in
    scan order (the self-pair as the number system has it), |Omega| and
    min |w| of ``_scan`` bit for bit, and the discrepancy-bound witness and
    the partition at a cap of 1 against the default cap.  On the sphere
    also with the Python-int table."""
    closure, shape = ("zonal", "triangular") if data is None else \
        data.draw(st.sampled_from(CLOSURE_SHAPES[1:3] if spec.exactness
                                  else CLOSURE_SHAPES), label="closure, shape")
    domain = SpectralDomain(T, shape)
    with pytest.MonkeyPatch.context() as mp:
        if python_int and spec.exactness:
            mp.setattr(search, "_FLOAT_EXACT_LIMIT", 0)
        X = search._table(spec, T)
        assert (X.dtype == object) == (python_int and spec.exactness)
        want = row_scan(spec, domain, closure, patterns, skip)
        mp.setattr(search, "_BLOCK", cap)
        got, sizes = flat_blocks(search.CLOSURES[closure].blocks(
            X, domain, skip, unpruned(patterns)))
        old, _ = flat_blocks(ROW_BLOCKS[closure](X, domain, skip))
        assert same_columns(got, old)
        if got is not None:  # both closure cuts between k2 rows
            check_block_sizes(got[:2] + (got[4:5] if closure == "both"
                                         else []), sizes, cap)
        assert same_columns(block_scan(spec, domain, closure, patterns, skip),
                            want)
        omegas = np.unique(want[5][want[5] > 0]) if want else []

        def run():
            bound = discrepancy_lower_bound(spec, domain, closure=closure)
            out = [fields([bound.finite_min.witness])
                   if bound.finite_min else None]
            if len(omegas):
                out.append(partition_fields(classify_modes(
                    spec, domain, float(omegas[len(omegas) // 4]),
                    patterns=patterns, closure=closure,
                    skip_equal_n_pairs=skip)))
            return out

        mp.setattr(search, "_BLOCK", 1)
        at_one = run()
        mp.undo()
        if python_int and spec.exactness:
            mp.setattr(search, "_FLOAT_EXACT_LIMIT", 0)
        assert run() == at_one


# -- windowed zonal blocks against the dense generator they bypass -------------

def dense_zonal_blocks(X, domain, skip_equal_n_pairs):
    """Pairs k1 <= k2 (k1 < k2 on the exact table) with m3 = m1 + m2,
    each with every n3 of the domain, in (k2, n3) order.
    ``skip_equal_n_pairs`` leaves out the pairs n1 = n2."""
    T = domain.truncation
    self_pair = X.dtype == np.float64
    tri = domain.shape == "triangular"
    ar = np.arange(T + 1)  # the modes in (m, n) order
    mm, nn = np.nonzero((ar[:, None] > 0) & (ar >= (ar[:, None] if tri else 1)))
    i = np.flatnonzero(2 * mm <= T)
    m1, n1 = mm[i], nn[i]
    # Modes come in m order, so the k2 with m2 <= T - m1 are a run, and
    # each pair takes n3 from n_lo to T: n_lo = m3 on a triangle, else 1.
    j0, stop = i + (not self_pair), np.searchsorted(mm, T - m1, "right")
    sum_m = np.r_[0, np.cumsum(mm)]
    counts = ((stop - j0) * (T + 1 - m1) - sum_m[stop] + sum_m[j0] if tri
              else (stop - j0) * T)
    if skip_equal_n_pairs:  # the k2 = (m2, n1) with lo <= m2 <= hi
        lo, hi = m1 + (not self_pair), np.minimum(T - m1, n1 if tri else T)
        q = np.maximum(hi - lo + 1, 0)
        counts -= q * (T + 1 - m1) - q * (lo + hi) // 2 if tri else q * T
    Xf, R = X.ravel(), T + 1
    for rows in search._runs(counts):
        j, a, b = search._expand(j0[rows], stop[rows] - j0[rows], m1[rows],
                                 n1[rows])
        if skip_equal_n_pairs:
            keep = nn[j] != b
            j, a, b = j[keep], a[keep], b[keep]
        m2, n2 = mm[j], nn[j]
        n3 = a + m2 if tri else np.ones_like(m2)  # o3: row m3's offset in X
        n3, a, b, x2, o3, m2, n2 = search._expand(
            n3, T + 1 - n3, a, b, X[m2, n2], (a + m2) * R, m2, n2)
        yield a, b, x2, Xf[o3 + n3], m2, n2, n3


#: Zonal closure on the dense generator, which reads no n3 window.
DENSE_ZONAL = dataclasses.replace(
    search.CLOSURES["zonal"],
    blocks=lambda X, domain, skip, test: dense_zonal_blocks(X, domain, skip))


def walk_fields(domain, omega_max, patterns, skip, n_selection):
    """The classifier walk's seeds and hits (members and |Omega| by
    float.hex), in scan order."""
    rule = search.CLOSURES["zonal"]
    seeds, hits = classify._walk(
        search._table(SPHERE, domain.truncation), domain, rule,
        classify._n_rule(rule, n_selection), patterns, skip, omega_max)
    return fields(seeds), hit_fields(hits)


@given(shape=st.sampled_from(["triangular", "square"]),
       patterns=st.sampled_from(["sum", "all"]), skip=st.booleans(),
       python_int=st.booleans(), cap=st.sampled_from([1, 7, 2 ** 14]),
       n_selection=st.sampled_from(["none", "parity"]), data=st.data())
@example(shape="triangular", patterns="sum", skip=True, python_int=False,
         cap=7, n_selection="parity", data=None)
def test_windowed_zonal_blocks_match_dense_blocks(shape, patterns, skip,
                                                  python_int, cap,
                                                  n_selection, data):
    """The exact path reads each pair's n3 window only.  Its blocks hold
    at most ``cap`` candidates or one k1 row, as the dense ones do, and
    against the dense generator it bypasses the exact search, the
    discrepancy bound (value and witness), the classifier walk's seeds and
    hits in scan order, and (T <= 12, as bridge searches are slow) the
    partition are equal.  omega_max is one of the domain's own |Omega|
    values up to 0.01, so the edge of the windows is a tie.  The
    Python-int table, slow per element, runs to T = 12."""
    if data is None:
        T, q = 20, 0.5
    else:
        T = data.draw(st.integers(1, 12 if python_int else 30), label="T")
        q = data.draw(st.floats(0.0, 1.0), label="q")
    domain = SpectralDomain(T, shape)
    with pytest.MonkeyPatch.context() as mp:
        if python_int:
            mp.setattr(search, "_FLOAT_EXACT_LIMIT", 0)
        mp.setattr(search, "_BLOCK", cap)
        X = search._table(SPHERE, T)
        _, a, _ = next(search._scan(X, domain, DENSE_ZONAL, skip,
                                    unpruned(patterns)),
                       (None, np.zeros(0), None))
        omegas = np.unique(a[(a > 0) & (a <= 0.01)]).tolist() or [0.01]
        omega_max = omegas[int(q * (len(omegas) - 1))]
        for within in ((0, 0), (0, 1), (omega_max, 0)):
            got, sizes = flat_blocks(search.CLOSURES["zonal"].blocks(
                X, domain, skip, (patterns, *within, None)))
            if got is not None:
                check_block_sizes(got[:2], sizes, cap)

        def run():
            bound = discrepancy_lower_bound(SPHERE, domain)
            out = [fields(find_exact_triads(SPHERE, domain, skip)),
                   bound.finite_min and (bound.finite_min.value,
                                         fields([bound.finite_min.witness])),
                   walk_fields(domain, omega_max, patterns, skip, n_selection)]
            if T <= 12:
                out.append(partition_fields(classify_modes(
                    SPHERE, domain, omega_max, patterns=patterns,
                    n_selection=n_selection, skip_equal_n_pairs=skip)))
            return out

        got = run()
        mp.setitem(search.CLOSURES, "zonal", DENSE_ZONAL)
        assert run() == got


# -- flat-offset kernels against the gathers they replaced ---------------------

def mask_box_blocks(X, domain, skip_equal_n_pairs, test):
    """Box-closed candidates as the kernel formed them before it read X by
    flat offset: each pair's two n3 stacked, the pair columns repeated
    twice and masked, and X read by 2-D index arrays."""
    T = domain.truncation
    m1, n1 = (g.ravel() for g in np.mgrid[1:T // 2 + 1, 1:T + 1])
    i, full = (m1 - 1) * T + n1 - 1, T - 2 * m1
    counts = T - n1 + np.maximum(T - 2 * n1, 0) + full * (2 * T - 1 - n1)
    for rows in search._runs(counts):
        j, a, b = search._expand(i[rows] + 1, (full[rows] + 1) * T - n1[rows],
                                 m1[rows], n1[rows])
        m2, n2 = j // T + 1, j % T + 1
        n3 = np.stack((np.abs(b - n2), b + n2), axis=1).ravel()
        keep = (n3 >= 1) & (n3 <= T)
        a, b, m2, n2 = (np.repeat(v, 2)[keep] for v in (a, b, m2, n2))
        n3 = n3[keep]
        yield a, b, X[m2, n2], X[a + m2, n3], m2, n2, n3


def hull_n3_window(c1, c2, m3, n_lo, T, patterns, tau, widen):
    """The n3 window of ``sphere._n3_window`` as the hull of a stack of
    every pattern's window, the sum pattern's too."""
    te = tau + 8 * sphere._U * (c1 + c2 + tau)
    slack, q = 8 * sphere._U * (T + 4), 8.0 * m3
    ends = []
    for u in (c1 + c2,) if patterns == "sum" else (c1 + c2, c2 - c1, c1 - c2):
        lo, hi = (np.sqrt(1 + q / np.maximum(u + s * te, 1e-300)) * 0.5
                  for s in (1, -1))
        ends.append((np.clip(np.ceil(lo - (0.5 + slack + widen)), n_lo,
                             T + 1 - widen),
                     np.clip(np.floor(hi - (0.5 - slack - widen)),
                             n_lo - 1 + widen, T)))
    lo, hi = (np.array(e) for e in zip(*ends))
    empty = lo > hi
    lo[empty], hi[empty] = T + 1, -1
    return lo.min(axis=0).astype(np.int64), hi.max(axis=0).astype(np.int64)


def expand_zonal_blocks(X, domain, skip_equal_n_pairs, test):
    """Zonal blocks as the kernel formed them before it selected by a
    range index: every pair column repeated per n3 by ``_expand``, X read
    by 2-D index arrays and its flat copy, and the windows of
    :func:`hull_n3_window`."""
    T, exact = domain.truncation, X.dtype != np.float64
    tri = domain.shape == "triangular"
    window = exact and math.isfinite(test[1])
    ar = np.arange(T + 1)
    mm, nn = np.nonzero((ar[:, None] > 0) & (ar >= (ar[:, None] if tri else 1)))
    i = np.flatnonzero(2 * mm <= T)
    j0, stop = i + exact, np.searchsorted(mm, T - mm[i], "right")
    xm, Xf, R = X[mm, nn], X.ravel(), T + 1
    cm = 2.0 * mm / xm.astype(np.float64) if window else None

    def block(k, j, lo, count):
        a, m2 = mm[k], mm[j]
        n3, a, b, x2, o3, m2, n2 = search._expand(
            lo, count, a, nn[k], xm[j], (a + m2) * R, m2, nn[j])
        return a, b, x2, Xf[o3 + n3], m2, n2, n3

    held = [np.zeros(0, np.int64)] * 4
    for rows in search._runs(stop - j0):
        j, k = search._expand(j0[rows], stop[rows] - j0[rows], i[rows])
        if skip_equal_n_pairs:
            keep = nn[j] != nn[k]
            j, k = j[keep], k[keep]
        m3 = mm[k] + mm[j]
        lo = m3 if tri else np.ones_like(m3)
        hi = T
        if window:
            lo, hi = hull_n3_window(cm[k], cm[j], m3, lo, T, *test[:3])
            keep = np.flatnonzero(hi >= lo)
            k, j, lo, hi = k[keep], j[keep], lo[keep], hi[keep]
        k, j, lo, count = held = [np.concatenate(p) for p in zip(
            held, (k, j, lo, hi - lo + 1))]
        if count.sum() <= search._BLOCK:
            continue
        starts = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
        cuts = [starts[r[0]] for r in search._runs(
            np.add.reduceat(count, starts))]
        for c, d in zip(cuts, cuts[1:]):
            yield block(*(p[c:d] for p in held))
        held = [p[cuts[-1]:] for p in held]
    if held[0].size:
        yield block(*held)


GATHER_BLOCKS = {"box": mask_box_blocks, "zonal": expand_zonal_blocks}


def exact_arrays(arrays):
    """Each array's dtype, shape and values: bytes, or the Python ints of
    an ``object`` array."""
    return [(a.dtype, a.shape, a.tolist() if a.dtype == object
             else a.tobytes()) for a in arrays]


#: Finite taus of the windows, about the sphere's classification ceiling.
WINDOW_TAUS = [0.0, 1e-4, 0.003, 0.03, 0.5, math.inf]


@given(spec=st.sampled_from(FLOAT_SPECS + [SPHERE]), T=st.integers(1, 24),
       cap=st.sampled_from([1, 7, search._BLOCK]),
       patterns=st.sampled_from(["sum", "all"]), skip=st.booleans(),
       python_int=st.booleans(), tau=st.sampled_from(WINDOW_TAUS),
       widen=st.sampled_from([0, 1]))
@example(spec=DispersionSpec("bve_plane", plane_form="squared"), T=15,
         cap=search._BLOCK, patterns="all", skip=True, python_int=False,
         tau=math.inf, widen=0)
@example(spec=SPHERE, T=20, cap=7, patterns="sum", skip=True,
         python_int=True, tau=0.03, widen=0)
def test_flat_kernels_match_their_gather_references(spec, T, cap, patterns,
                                                    skip, python_int, tau,
                                                    widen):
    """The box and zonal blocks, which read X by flat offset and select by
    index, equal block by block, bit for bit, those of the kernels they
    replaced (:func:`mask_box_blocks`, :func:`expand_zonal_blocks`): the
    same blocks, so the same boundaries, each with the same candidates
    and table values, whatever ``_BLOCK`` cuts them at (1, 7 or the
    default).  Float kinds take box closure and zonal closure on both
    shapes, the sphere zonal closure on both shapes, on the int64 and the
    Python-int table, under a window of tau 0, finite or inf (no window),
    widened by 0 or 1."""
    with pytest.MonkeyPatch.context() as mp:
        if python_int and spec.exactness:
            mp.setattr(search, "_FLOAT_EXACT_LIMIT", 0)
        mp.setattr(search, "_BLOCK", cap)
        X = search._table(spec, T)
        test = (patterns, tau, widen, None)
        for closure, shape in (CLOSURE_SHAPES[1:3] if spec.exactness
                               else CLOSURE_SHAPES[1:]):
            domain = SpectralDomain(T, shape)
            got = [exact_arrays(b) for b in search.CLOSURES[closure].blocks(
                X, domain, skip, test)]
            assert got == [exact_arrays(b) for b in GATHER_BLOCKS[closure](
                X, domain, skip, test)]


def test_box_blocks_above_the_row_cap():
    """At T=48 the default ``_BLOCK`` cuts box blocks at k1 rows of up to
    4,417 candidates, past the hypothesis tests' T <= 24, where no box row
    outgrows the default cap: the template blocks equal
    :func:`mask_box_blocks` block by block, bit for bit, and
    :func:`row_box_blocks` as flat columns, each block the whole rows it
    holds, a row above the cap alone.  Compared as they stream, so no more
    than one block is held."""
    T = 48
    domain, X = SpectralDomain(T), search._table(
        DispersionSpec("bve_plane", plane_form="squared"), T)
    rows, sizes = row_box_blocks(X, domain, True), []
    for got, old in itertools.zip_longest(
            search.CLOSURES["box"].blocks(X, domain, True, unpruned("all")),
            mask_box_blocks(X, domain, True, unpruned("all"))):
        assert got is not None and old is not None
        assert exact_arrays(got) == exact_arrays(old)
        want = [next(rows)]
        while sum(r[4].size for r in want) < got[0].size:
            want.append(next(rows))
        assert same_columns(flat_blocks([got])[0], flat_blocks(want)[0])
        assert got[0].size <= search._BLOCK or len(want) == 1
        sizes.append(got[0].size)
    assert next(rows, None) is None
    assert max(sizes) == 4417 > search._BLOCK and sum(sizes) == 1908288


@given(T=st.integers(1, 24), shape=st.sampled_from(["triangular", "square"]),
       patterns=st.sampled_from(["sum", "all"]),
       tau=st.sampled_from(WINDOW_TAUS), widen=st.sampled_from([0, 1]),
       python_int=st.booleans())
@example(T=24, shape="triangular", patterns="sum", tau=0.0, widen=1,
         python_int=False)
def test_single_pattern_window_matches_the_hull(T, shape, patterns, tau,
                                                widen, python_int):
    """``sphere._n3_window`` of every zonal pair of the exact table, k1 <
    k2 with m1 + m2 <= T, equals :func:`hull_n3_window` bit for bit: the
    sum pattern's own window, empty ones as (T + 1, -1), and the hull of
    the three under any pattern, at tau 0, finite and inf, widened by 0
    or 1, on both shapes and on the Python-int table."""
    with pytest.MonkeyPatch.context() as mp:
        if python_int:
            mp.setattr(search, "_FLOAT_EXACT_LIMIT", 0)
        X = search._table(SPHERE, T)
    modes = np.array(list(SpectralDomain(T, shape).modes()), np.int64).T
    k, j = np.nonzero(modes[0][:, None] + modes[0] <= T)
    k, j = k[k < j], j[k < j]
    mm, xm = modes[0], X[modes[0], modes[1]]
    c = 2.0 * mm / xm.astype(np.float64)
    m3 = mm[k] + mm[j]
    n_lo = m3 if shape == "triangular" else np.ones_like(m3)
    args = (c[k], c[j], m3, n_lo, T, patterns, tau, widen)
    assert exact_arrays(sphere._n3_window(*args)) == \
        exact_arrays(hull_n3_window(*args))


# -- the pruning contract: a closure leaves out only what fails the test -------

@contextlib.contextmanager
def build_calls(module):
    """The candidate count of every ``_build`` call that ``module`` makes
    inside the block, in order."""
    calls, build = [], module._build

    def counting(X, patterns, cand):
        calls.append(len(cand[0]))
        return build(X, patterns, cand)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "_build", counting)
        yield calls


def per_block_least_nonzero(domain, rule, X):
    """The bound's witness as the scan found it block by block, the
    reference of the search that builds its ties once: per block, the
    candidates at the block's least float |Omega|, if not above the best
    so far, built on X and compared exactly; the first least wins."""
    best, best_a = None, math.inf
    for cand, a, amin in search._scan(X, domain, rule, True,
                                      (rule.bound_patterns, 0, 1, None)):
        a[search._select(a, amin, NUMERIC_EXACT_D, None)] = math.inf
        low = float(a.min())
        if low == math.inf or low > best_a:
            continue
        tied = search._build(X, rule.bound_patterns,
                             [c[a == low] for c in cand])
        for t in tied.triads():
            if best is None or abs(t.discrepancy) < abs(best.discrepancy):
                best, best_a = t, float(abs(t.discrepancy))
    return best


def kept(scan, select):
    """The columns (m1, n1, m2, n2, n3, |Omega|) of the candidates that
    ``select(a, amin)`` keeps over the blocks of ``scan``, in scan order."""
    out = [[np.zeros(0, np.int64)] * 5 + [np.zeros(0)]]
    for cand, a, amin in scan:
        keep = select(a, amin)
        out.append([c[keep] for c in (*cand, a)])
    return [np.concatenate(c) for c in zip(*out)]


@given(spec=st.sampled_from(FLOAT_SPECS + [SPHERE]), T=st.integers(1, 12),
       closure_at=st.integers(0, 3), patterns=st.sampled_from(["sum", "all"]),
       skip=st.booleans(), q=st.floats(0.0, 1.0))
@example(spec=DispersionSpec("gravity_capillary", mu_over_nu=75.0), T=12,
         closure_at=0, patterns="all", skip=True, q=0.1)
@example(spec=SPHERE, T=12, closure_at=1, patterns="sum", skip=False, q=0.5)
def test_pruned_scans_keep_what_the_unpruned_scan_keeps(spec, T, closure_at,
                                                        patterns, skip, q):
    """Each closure leaves out only candidates that fail the caller's
    test.  For the exact search (tau 0), the classifier walk (tau =
    omega_max: its seeds and its hits), the near search (a finite and an
    infinite d_max) and the max-discrepancy search, ``_select`` keeps over
    ``_scan`` with that test the candidates, and their |Omega| bit for bit,
    in order, that it keeps over the scan that prunes nothing; for the
    bound's widened window the ``_least_nonzero`` witness is the unpruned
    one.  Both sides hand the selection min |w| as the consumer's own scan
    does: None on the exact table at a finite tau.  The thresholds are the
    domain's own d and |Omega|, so they tie."""
    shapes = CLOSURE_SHAPES[1:3] if spec.exactness else CLOSURE_SHAPES
    closure, shape = shapes[closure_at % len(shapes)]
    domain, rule = SpectralDomain(T, shape), search.CLOSURES[closure]
    X, scan_all = search._table(spec, T), search._scan

    def scan(X, domain, rule, skip, test, pruned=True):
        """The scan under ``test``, or the one that prunes nothing, with
        the consumer's amin: None on the exact table at a finite tau."""
        bare = spec.exactness and math.isfinite(test[1])
        for cand, a, amin in scan_all(X, domain, rule, skip, test if pruned
                                      else unpruned(test[0])):
            yield cand, a, None if bare else amin

    every = [(a / amin, a) for _, a, amin in
             scan(X, domain, rule, skip, unpruned(patterns))]
    ds, omegas = (np.unique(v[np.isfinite(v) & (v > 0)]) for v in map(
        np.concatenate, zip((np.ones(1), np.ones(1)), *every)))
    d, omega_max = (v[int(q * (len(v) - 1))] for v in (ds, omegas))
    for test, select in [
            ((patterns, 0, 0, 0),
             lambda a, amin: search._select(a, amin, 0, None)),
            ((patterns, omega_max, 0, None),
             lambda a, amin: search._select(a, amin, NUMERIC_EXACT_D, None)),
            ((patterns, omega_max, 0, None),
             lambda a, amin: (a > 0) & (a <= omega_max)),
            ((patterns, math.inf, 0, d),
             lambda a, amin: search._select(a, amin, d, None)),
            ((patterns, math.inf, 0, math.inf),
             lambda a, amin: search._select(a, amin, math.inf, None)),
            ((patterns, math.inf, 0, None),
             lambda a, amin: search._select(a, amin, None, d))]:
        assert same_columns(
            kept(scan(X, domain, rule, skip, test), select),
            kept(scan(X, domain, rule, skip, test, False), select))

    def witness(least_nonzero=search._least_nonzero):
        t = least_nonzero(domain, rule, X)
        return fields([t] if t else [])

    with build_calls(search) as builds:
        pruned = witness()
    assert len(builds) == (1 if pruned else 0)
    for cap in (search._BLOCK, 7):  # 7: the ties span many blocks
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "_BLOCK", cap)
            assert witness() == witness(per_block_least_nonzero) == pruned
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_scan", lambda *args: scan(*args, False))
        assert witness() == pruned


@pytest.mark.parametrize("T, count, bound, witness", [
    (40, 113, Fraction(1, 7657650), ((1, 33), (2, 25), (3, 27))),
    (60, 225, Fraction(1, 104780364), None),
])
def test_exact_sphere_at_larger_truncations(T, count, bound, witness):
    """The exact triad count and the discrepancy bound of the sphere at
    T = 40 and 60, which the windowed and the dense scans both give."""
    domain = SpectralDomain(T, "triangular")
    assert len(find_exact_triads(SPHERE, domain)) == count
    rep = discrepancy_lower_bound(SPHERE, domain)
    assert rep.finite_min.value == bound
    if witness:
        assert rep.finite_min.witness.key() == tuple(
            WaveVector(*k) for k in witness)


@pytest.mark.parametrize("spec, T, shape, closure", [
    (SPHERE, 20, "triangular", "auto"),
    (SPHERE, 40, "triangular", "auto"),
    (DispersionSpec("bve_plane", plane_form="squared"), 15, "square", "box"),
], ids=["sphere-20", "sphere-40", "bve-box-15"])
def test_bound_builds_its_ties_once(spec, T, shape, closure):
    """discrepancy_lower_bound builds the candidates at the least float
    |Omega| once, after its scan (the block-by-block search built 3 times
    on the sphere at T = 20 and 10 times at T = 40), and its witness,
    members, frequencies, discrepancy, d_ratio and signs, is that
    search's."""
    domain = SpectralDomain(T, shape)
    with build_calls(search) as builds:
        rep = discrepancy_lower_bound(spec, domain, closure)
    assert len(builds) == 1
    want = per_block_least_nonzero(domain, search._dispatch(
        spec, domain, closure), search._table(spec, T))
    assert fields([rep.finite_min.witness]) == fields([want])
    assert rep.finite_min.value == abs(want.discrepancy)


# -- scan order: the searches need no tie-breaking sort ------------------------

def tuple_key_sorts(triads):
    """The public orders by their former tuple keys: d_ratio ascending, and
    descending, each with ties broken on (k1, k2, k3)."""
    return (sorted(triads, key=lambda t: (t.d_ratio, t.k1, t.k2, t.k3)),
            sorted(triads, key=lambda t: (-t.d_ratio, t.k1, t.k2, t.k3)))


@given(spec=st.sampled_from(FLOAT_SPECS + [SPHERE]), T=st.integers(1, 12),
       closure_shape=st.sampled_from(CLOSURE_SHAPES),
       patterns=st.sampled_from(["sum", "all"]), skip=st.booleans(),
       q=st.floats(0.0, 1.0))
@example(spec=DispersionSpec("capillary"), T=12,
         closure_shape=("both", "square"), patterns="sum", skip=True, q=0.5)
@example(spec=SPHERE, T=12, closure_shape=("zonal", "triangular"),
         patterns="sum", skip=False, q=0.3)
def test_searches_emit_scan_order_and_sort_stably(spec, T, closure_shape,
                                                  patterns, skip, q):
    """``_search`` returns columns with strictly increasing (k1, k2, k3)
    under every closure and shape, on both number systems, densely and on
    the tile-pruned path; so the public searches' stable sorts on d_ratio
    alone equal the former tuple-key sorts, ties included (the unit-square
    capillary has many)."""
    closure, shape = closure_shape
    if spec.exactness and closure != "zonal":
        closure = "zonal"
    domain = SpectralDomain(T, shape)
    rule = search.CLOSURES[closure]
    every = search._search(spec, domain, rule, patterns=patterns,
                           d_max=math.inf, skip_equal_n_pairs=skip).triads()
    ds = sorted({t.d_ratio for t in every if t.d_ratio > 0}) or [1.0]
    d = ds[int(q * (len(ds) - 1))]
    for run in ({"d_max": math.inf}, {"d_max": d}, {"d_min": d},
                {"d_max": 0} if spec.exactness else {"d_max": d}):
        keys = [t.key() for t in search._search(
            spec, domain, rule, patterns=patterns, skip_equal_n_pairs=skip,
            **run).triads()]
        assert all(a < b for a, b in zip(keys, keys[1:]))
    near = find_near_triads(spec, domain, d, patterns, closure, skip)
    assert near == tuple_key_sorts(
        [t for t in every if t.d_ratio <= d])[0]
    if skip:
        top = find_max_discrepancy_triads(spec, domain, d, patterns, closure)
        assert top == tuple_key_sorts([t for t in every if t.d_ratio >= d])[1]
    if spec.exactness and closure == "zonal" and patterns == "sum":
        exact = find_exact_triads(spec, domain, skip)
        assert exact == sorted(exact, key=Triad.key)
