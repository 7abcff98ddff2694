import math
from fractions import Fraction
from itertools import combinations

import pytest

from wavetriads import (
    BasinGeometry,
    DispersionSpec,
    DomainError,
    SpectralDomain,
    UsageError,
    WaveVector,
    cascade_path,
    classify_modes,
    discrepancy,
    discrepancy_lower_bound,
    eval_frequency,
    find_exact_triads,
    find_max_discrepancy_triads,
    find_near_triads,
    to_hz,
)
from wavetriads import search
from conftest import TYPE_A, TYPE_B, ari_hits, gc_spec, wv

CLASSIC = (wv(4, 12), wv(5, 14), wv(9, 13))


def naive_exact_oracle(spec, domain):
    """Independent triple-loop exact search (sum form, zonal closure,
    equal-latitude donor pairs excluded)."""
    modes = list(domain.modes())
    freqs = {k: eval_frequency(spec, k).omega for k in modes}
    found = set()
    for k1, k2 in combinations(modes, 2):
        if k1.n == k2.n:
            continue
        for k3 in modes:
            if k3.m != k1.m + k2.m:
                continue
            if freqs[k1] + freqs[k2] == freqs[k3]:
                found.add((k1, k2, k3))
    return found


def test_classic_sphere_triad_is_exact(sphere, sphere_t14):
    triads = find_exact_triads(sphere, sphere_t14)
    keys = {t.key() for t in triads}
    assert CLASSIC in keys
    for t in triads:
        assert t.discrepancy == 0
        assert isinstance(t.discrepancy, Fraction)
    # the identity behind the classic triad, by hand
    assert Fraction(2, 39) + Fraction(1, 21) == Fraction(9, 91)


def test_exact_search_small_domains(sphere):
    assert find_exact_triads(sphere, SpectralDomain(3, "triangular")) == []
    assert find_exact_triads(sphere, SpectralDomain(1, "triangular")) == []


def test_exact_requires_rational_dispersion(square_t30):
    with pytest.raises(UsageError):
        find_exact_triads(gc_spec(75), square_t30)


@pytest.mark.parametrize("T", [8, 12, 16])
def test_exact_search_matches_naive_oracle(sphere, T):
    domain = SpectralDomain(T, "triangular")
    got = {t.key() for t in find_exact_triads(sphere, domain)}
    assert got == naive_exact_oracle(sphere, domain)


def test_discrepancy_exact_zero(sphere):
    om = discrepancy(sphere, CLASSIC)
    assert om == 0 and isinstance(om, Fraction)


def test_discrepancy_rejects_a_non_finite_vector():
    with pytest.raises(DomainError):
        discrepancy(DispersionSpec("capillary"),
                    [(1, 1), (2, 2), (math.inf, 3)])


def test_discrepancy_degenerate_sign_cancellation(sphere):
    k = wv(3, 7)
    om = discrepancy(sphere, (k, k, k), signs=(1, -1, -1))
    assert om == -eval_frequency(sphere, k).omega
    assert om != 0


def test_discrepancy_published_triad_small():
    spec = gc_spec(75)
    k1, k2, k3, _ = TYPE_A[75]
    om = discrepancy(spec, (k1, k2, k3))
    ws = [eval_frequency(spec, wv(*k)).omega for k in (k1, k2, k3)]
    assert abs(to_hz(om)) <= 1e-4
    assert abs(om) / min(ws) <= 1e-5


def test_discrepancy_swapping_donors_is_symmetric():
    spec = gc_spec(16)
    k1, k2, k3, _ = TYPE_A[16]
    assert discrepancy(spec, (k1, k2, k3)) == discrepancy(spec, (k2, k1, k3))


@pytest.mark.parametrize("mu", sorted(TYPE_A))
def test_near_search_returns_published_type_a(mu, square_t30):
    k1, k2, k3, hz = TYPE_A[mu]
    triads = find_near_triads(gc_spec(mu), square_t30, 1e-5)
    match = [t for t in triads if t.key() == (k1, k2, k3)]
    assert match, f"triad {k1}+{k2}={k3} missing for mu/nu={mu}"
    for w, ref in zip(match[0].omegas, hz):
        assert abs(to_hz(w) - ref) < 1e-3


def test_near_search_sorted_and_canonical(square_t30):
    triads = find_near_triads(gc_spec(75), square_t30, 1e-4)
    assert all(t.k1 <= t.k2 for t in triads)
    ds = [t.d_ratio for t in triads]
    assert ds == sorted(ds)
    assert len({t.key() for t in triads}) == len(triads)


def closed_triple_count(T):
    """Number of component-wise closed triads in a T x T domain with
    k1 <= k2: ordered splits (m3-1)(n3-1), the k1 = k2 split counted once."""
    total = 0
    for m3 in range(2, T + 1):
        for n3 in range(2, T + 1):
            ordered = (m3 - 1) * (n3 - 1)
            central = 1 if (m3 % 2 == 0 and n3 % 2 == 0) else 0
            total += (ordered + central) // 2
    return total


@pytest.mark.parametrize("T", [4, 7, 10])
def test_huge_threshold_returns_all_closed_triads(T):
    domain = SpectralDomain(T, "square")
    triads = find_near_triads(gc_spec(16), domain, 1e9)
    assert len(triads) == closed_triple_count(T)


@pytest.mark.parametrize("T1,T2", [(8, 12), (12, 16)])
def test_domain_monotonicity(T1, T2):
    spec = gc_spec(27)
    small = {t.key() for t in
             find_near_triads(spec, SpectralDomain(T1, "square"), 1e-3)}
    large = {t.key() for t in
             find_near_triads(spec, SpectralDomain(T2, "square"), 1e-3)}
    assert small <= large


def _bits(x):
    """A frequency or residual by type and value: floats by float.hex,
    Fractions exactly."""
    return type(x).__name__, float.hex(x) if isinstance(x, float) else x


def _signed(ws, signs):
    """The residual s1*w1 + s2*w2 + s3*w3, in the sign-product form."""
    return signs[0] * ws[0] + signs[1] * ws[1] + signs[2] * ws[2]


def _least_signed(ws, patterns):
    """The sum pattern's residual, or the first of least |.| over the sign
    patterns."""
    signs = search.SIGN_PATTERNS if patterns == "all" else [(1, 1, -1)]
    return min((_signed(ws, s) for s in signs), key=abs)


def _basin_spec(kind, lx, ly, **kw):
    basin = (BasinGeometry() if lx == ly == 1.0
             else BasinGeometry("rectangle", lx, ly))
    return DispersionSpec(kind, basin=basin, **kw)


#: Every float kind (both plane forms) on four basins, and the sphere.
IDENTITY_SPECS = [_basin_spec(kind, lx, ly, **kw)
                  for kind, kw in [("capillary", {}),
                                   ("gravity_capillary", {"mu_over_nu": 47.0}),
                                   ("gravity_tanh", {"alpha": 0.5}),
                                   ("bve_plane", {}),
                                   ("bve_plane", {"plane_form": "squared"})]
                  for lx, ly in [(1.0, 1.0), (2.0, 2.0), (1.3, 0.7),
                                 (1.0, 4.0)]]
IDENTITY_SPECS.append(DispersionSpec("rossby_sphere"))


def results_carrying_frequencies(spec, patterns):
    """Near and max-discrepancy triads, the bound witness, the classifier's
    seeds (zonal closure, and box on floats), and as steps its bridges and
    depth-3 cascades from up to three seeds, whose source triads join the
    triads, at T = 10."""
    exact = spec.exactness
    domain = SpectralDomain(10, "triangular" if exact else "square")
    omega_max = 0.05 * max(abs(float(eval_frequency(spec, k).omega))
                           for k in domain.modes())
    triads = (find_near_triads(spec, domain, 0.05, patterns)
              + find_max_discrepancy_triads(spec, domain, 0.5, patterns)
              + [discrepancy_lower_bound(spec, domain).finite_min.witness])
    steps = []
    for closure in ["zonal"] if exact else ["zonal", "box"]:
        part = classify_modes(spec, domain, omega_max, patterns=patterns,
                              closure=closure)
        triads += part.resonant_triads
        steps += part.bridges
        for seed in part.resonant_triads[:3]:
            steps += cascade_path(spec, domain, seed, 3, patterns, closure)
    return triads + [s.source_triad for s in steps], steps


def check_carried_frequencies(spec, triads, steps, patterns):
    """Each omega is eval_frequency's, each discrepancy its sign pattern's
    residual on those values (a bridge's: the first least one)."""
    for t in triads:
        ws = tuple(eval_frequency(spec, k).omega for k in t.members())
        assert list(map(_bits, t.omegas)) == list(map(_bits, ws))
        assert _bits(t.discrepancy) == _bits(_signed(ws, t.signs))
    for s in steps:
        ws = tuple(eval_frequency(spec, k).omega
                   for k in (*s.donor_pair, s.bridge_wave))
        assert _bits(s.bridge_discrepancy) == _bits(_least_signed(ws,
                                                                  patterns))


def test_stored_frequencies_reproduce_bit_for_bit(square_t30):
    """Every frequency a result carries is eval_frequency's (floats by
    float.hex, Fractions exactly), and every discrepancy is its sign
    pattern's residual on those values, though each call reads them from
    its one kernel table: gc47's near triads at T = 30, and every result
    kind of every float kind on four basins and of the sphere."""
    spec = gc_spec(47)
    check_carried_frequencies(
        spec, find_near_triads(spec, square_t30, 1e-4), [], "sum")
    bridged = set()
    for spec in IDENTITY_SPECS:
        for patterns in ("sum", "all"):
            triads, steps = results_carrying_frequencies(spec, patterns)
            assert len(triads) > 1
            check_carried_frequencies(spec, triads, steps, patterns)
            bridged |= {spec.kind} if steps else set()
    assert bridged == {"rossby_sphere", "bve_plane"}


def test_vector_closure_exact(square_t30):
    for t in find_near_triads(gc_spec(16), square_t30, 1e-4):
        assert t.k1.m + t.k2.m == t.k3.m
        assert t.k1.n + t.k2.n == t.k3.n


@pytest.mark.parametrize("mu", sorted(TYPE_B))
def test_max_discrepancy_returns_published_type_b(mu, square_t30):
    k1, k2, k3, hz = TYPE_B[mu]
    triads = find_max_discrepancy_triads(gc_spec(mu), square_t30, 0.1)
    match = [t for t in triads if t.key() == (k1, k2, k3)]
    assert match
    for w, ref in zip(match[0].omegas, hz):
        assert abs(to_hz(w) - ref) < 1e-3
    # descending order with the head attaining the maximum
    ds = [t.d_ratio for t in triads]
    assert ds == sorted(ds, reverse=True)
    assert triads[0].d_ratio == max(ds)


def test_type_b_ratio_value(square_t30):
    k1, k2, k3, _ = TYPE_B[16]
    triads = find_max_discrepancy_triads(gc_spec(16), square_t30, 0.1)
    match = [t for t in triads if t.key() == (k1, k2, k3)][0]
    assert abs(match.d_ratio - 1.3416) < 1e-3


def test_thresholds_validated(square_t30, sphere, sphere_t14):
    with pytest.raises(UsageError):
        find_near_triads(gc_spec(75), square_t30, 0.0)
    with pytest.raises(UsageError):
        find_max_discrepancy_triads(sphere, sphere_t14, -1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_thresholds_rejected(bad, sphere):
    for spec, dom in ((gc_spec(75), SpectralDomain(6, "square")),
                      (sphere, SpectralDomain(6, "triangular"))):
        if bad != math.inf:  # an infinite ceiling keeps every triad
            with pytest.raises(UsageError):
                find_near_triads(spec, dom, bad)
        with pytest.raises(UsageError):
            find_max_discrepancy_triads(spec, dom, bad)
        with pytest.raises(UsageError):
            classify_modes(spec, dom, bad)


def test_infinite_d_max_keeps_every_closed_triad():
    dom = SpectralDomain(5, "square")
    assert (find_near_triads(gc_spec(75), dom, math.inf)
            == find_near_triads(gc_spec(75), dom, 1e300))


@pytest.mark.parametrize("triple, signs", [
    ((wv(1, 1), wv(1, 2)), (1, 1, -1)),
    ((wv(1, 1), wv(1, 2), wv(2, 3)), (1, -1)),
    ((wv(1, 1), wv(1, 2), wv(2, 3)), (1, 1, 0)),
    ((wv(1, 1), wv(1, 2), wv(2, 3)), (1, 2, -1)),
], ids=["two-vectors", "two-signs", "sign-0", "sign-2"])
def test_discrepancy_rejects_bad_arity_and_signs(triple, signs):
    with pytest.raises(UsageError):
        discrepancy(gc_spec(75), triple, signs)


def test_unknown_closure_rejected():
    with pytest.raises(UsageError, match="unknown closure"):
        find_near_triads(gc_spec(75), SpectralDomain(5), 1e-2,
                         closure="spiral")


@pytest.mark.parametrize("spec", [
    DispersionSpec("capillary"), DispersionSpec("gravity_tanh", alpha=0.3),
    DispersionSpec("gravity_capillary", mu_over_nu=75.0,
                   basin=BasinGeometry("rectangle", 1.0, 2.7)),
    DispersionSpec("capillary", basin=BasinGeometry("rectangle", 1.3, 0.7))],
    ids=["capillary", "tanh", "gc-rectangle", "capillary-rectangle"])
def test_threshold_at_a_triads_own_d_ratio_keeps_it(spec):
    """The searches decide on the frequencies the returned triads carry, so
    a ceiling or a floor at a triad's own d_ratio keeps that triad."""
    dom = SpectralDomain(12)
    for t in find_near_triads(spec, dom, math.inf)[::31]:
        assert t in find_near_triads(spec, dom, t.d_ratio)
        assert t in find_max_discrepancy_triads(spec, dom, t.d_ratio)


@pytest.mark.parametrize("closure,patterns", [("both", "sum"),
                                              ("zonal", "all"),
                                              ("box", "all")])
def test_rebuild_evaluates_each_output_mode_once(closure, patterns,
                                                 monkeypatch):
    """The scalar rebuild evaluates each distinct mode of the output once,
    not three frequencies per triad."""
    calls = []
    scalar = search.eval_frequency

    def counting(spec, k):
        calls.append(k)
        return scalar(spec, k)

    monkeypatch.setattr(search, "eval_frequency", counting)
    triads = find_max_discrepancy_triads(
        gc_spec(16), SpectralDomain(7, "square"), 0.5, patterns=patterns,
        closure=closure)
    modes = {k for t in triads for k in t.members()}
    assert triads
    assert len(calls) <= len(modes)


# -- discrepancy lower bounds -------------------------------------------------

def test_apriori_bound_small_case(sphere):
    # |omega(1,2) - omega(1,3)| = 1/6 >= 1/(3*6)
    w12 = eval_frequency(sphere, wv(1, 2)).omega
    w13 = eval_frequency(sphere, wv(1, 3)).omega
    assert abs(w12 - w13) == Fraction(1, 6)
    assert abs(w12 - w13) >= Fraction(1, 18)


def test_bound_report_sphere(sphere, sphere_t14):
    rep = discrepancy_lower_bound(sphere, sphere_t14)
    assert rep.apriori is not None
    assert rep.finite_min is not None
    assert rep.apriori.value > 0
    assert rep.apriori.value <= rep.finite_min.value
    w = rep.finite_min.witness
    assert abs(w.discrepancy) == rep.finite_min.value
    # every nonzero discrepancy seen by a search stays above the bound
    for t in find_near_triads(sphere, sphere_t14, 1e9):
        if t.discrepancy != 0:
            assert abs(t.discrepancy) >= rep.finite_min.value


def test_bound_report_float_spec(square_t30):
    rep = discrepancy_lower_bound(gc_spec(75), square_t30)
    assert rep.apriori is None
    assert rep.finite_min is not None
    assert rep.finite_min.value > 0
    near = find_near_triads(gc_spec(75), square_t30, 1e-5)
    for t in near:
        if t.discrepancy != 0:
            assert abs(t.discrepancy) >= rep.finite_min.value


@pytest.mark.parametrize("closure", ["both", "zonal"])
def test_float_bound_witness_has_integer_components(closure):
    rep = discrepancy_lower_bound(gc_spec(75), SpectralDomain(8, "square"),
                                  closure=closure)
    assert all(type(c) is int
               for k in rep.finite_min.witness.members() for c in k)


def test_bound_undefined_over_empty_set(sphere):
    rep = discrepancy_lower_bound(sphere, SpectralDomain(1, "triangular"))
    assert rep.finite_min is None
    assert "no vector-closed triad" in rep.note


# -- closure, sign-pattern and domain validation ------------------------------

# Every public search with one threshold, the classifier's walk (its
# approximate-resonance hits and its seeds) and the bound (no patterns).
SEARCHES = {
    "near": lambda spec, dom, **kw: find_near_triads(spec, dom, 1e-2, **kw),
    "maxd": lambda spec, dom, **kw: find_max_discrepancy_triads(spec, dom,
                                                                0.5, **kw),
    "ari": lambda spec, dom, **kw: ari_hits(spec, dom, 0.03, **kw),
    "seeds": lambda spec, dom, **kw: classify_modes(spec, dom, 0.03,
                                                    **kw).resonant_triads,
    "bound": lambda spec, dom, **kw: discrepancy_lower_bound(
        spec, dom, closure=kw.get("closure", "auto")),
}


@pytest.mark.parametrize("closure", ["both", "box"])
@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_exact_path_rejects_non_zonal_closure(sphere, name, closure):
    """The exact path is zonal-only: it must not answer a component-wise
    or box query with zonally closed triads."""
    with pytest.raises(UsageError, match="zonal"):
        SEARCHES[name](sphere, SpectralDomain(6, "triangular"),
                       closure=closure)


@pytest.mark.parametrize("closure", ["auto", "both", "box"])
@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_square_closures_reject_triangular_domain(name, closure):
    """``both`` and ``box`` accept only square domains, in every search
    and in the bound (whose witness (1,2)+(3,2)->(4,4) on a triangular
    T=4 domain is not a mode pair of that domain)."""
    with pytest.raises(UsageError, match="square domain"):
        SEARCHES[name](gc_spec(75), SpectralDomain(4, "triangular"),
                       closure=closure)


@pytest.mark.parametrize("spec_name,closure", [
    ("sphere", "auto"), ("water", "both"), ("water", "zonal"),
    ("water", "box")])
@pytest.mark.parametrize("name", ["near", "maxd", "ari", "seeds"])
def test_unknown_patterns_rejected(sphere, spec_name, closure, name):
    spec, shape = ((sphere, "triangular") if spec_name == "sphere"
                   else (gc_spec(75), "square"))
    with pytest.raises(UsageError, match="patterns"):
        SEARCHES[name](spec, SpectralDomain(5, shape), closure=closure,
                       patterns="any")
