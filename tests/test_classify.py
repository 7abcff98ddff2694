import math
import sys
from fractions import Fraction

import pytest

from wavetriads import (
    DispersionSpec,
    DomainError,
    SpectralDomain,
    Triad,
    UsageError,
    WaveVector,
    cascade_path,
    class_counts,
    classify_modes,
    eval_frequency,
    find_exact_triads,
    find_near_triads,
    minimal_near_resonant,
)
from wavetriads import classify, dispersion, search
from wavetriads.classify import (
    ACTIVE,
    NEUTRAL,
    PASSIVE,
    PLANE_TABLE_CONVENTION,
    REMARK_CONVENTION,
    REMARK_OMEGA_MAX,
    SPHERE_TABLE_CONVENTION,
    SPHERE_TABLE_OMEGA_MAX,
    SQUARE_TABLE_OMEGA_MAX,
    bve_rectangle_quarter_spec,
    bve_square_spec,
)
from wavetriads.search import (
    discrepancy_lower_bound,
    find_max_discrepancy_triads,
)
from conftest import gc_spec, wv

CLASSIC = (wv(4, 12), wv(5, 14), wv(9, 13))


def classic_triad(sphere, sphere_t14):
    return [t for t in find_exact_triads(sphere, sphere_t14)
            if t.key() == CLASSIC][0]


# -- partition structure ------------------------------------------------------

@pytest.mark.parametrize("omega_max", [1e-6, 0.03, 0.3])
def test_classic_members_active_for_any_threshold(sphere, sphere_t14, omega_max):
    part = classify_modes(sphere, sphere_t14, omega_max)
    for k in CLASSIC:
        assert part.mode_class(k) == ACTIVE


def test_modes_in_class_refuses_an_unknown_class(sphere, sphere_t14):
    part = classify_modes(sphere, sphere_t14, 0.03)
    with pytest.raises(UsageError,
                       match="'active', 'passive', 'neutral'"):
        part.modes_in_class("Active")


def test_mode_class_reads_integral_float_components(sphere, sphere_t14):
    """(2.0, 5.0) is a mode of the domain, as ``in`` and ``assignments``
    say, so mode_class gives its class; (2.5, 5) is no mode."""
    part = classify_modes(sphere, sphere_t14, 0.03)
    k = WaveVector(2.0, 5.0)
    assert k in part.domain
    assert part.mode_class(k) == part.assignments[k].mode_class
    with pytest.raises(KeyError):
        part.mode_class(WaveVector(2.5, 5))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_omega_max_rejected(sphere, bad):
    with pytest.raises(UsageError):
        classify_modes(sphere, SpectralDomain(4, "triangular"), bad)


def test_trivial_domain_is_all_neutral(sphere):
    part = classify_modes(sphere, SpectralDomain(1, "triangular"), 0.3)
    assert part.counts() == (0, 0, 1)
    part = classify_modes(gc_spec(75), SpectralDomain(1, "square"), 0.3)
    assert part.counts() == (0, 0, 1)


@pytest.mark.parametrize("spec_name,convention", [
    ("sphere", dict()),
    ("sphere", dict(n_selection="parity", bridge_mode="per_triad")),
    ("square", dict(patterns="all", closure="box")),
    ("square", dict(closure="zonal")),
    ("gc", dict()),
])
def test_partition_is_disjoint_and_exhaustive(spec_name, convention):
    spec = {"sphere": DispersionSpec("rossby_sphere"),
            "square": bve_square_spec(),
            "gc": gc_spec(16)}[spec_name]
    shape = "triangular" if spec.kind == "rossby_sphere" else "square"
    domain = SpectralDomain(10, shape)
    part = classify_modes(spec, domain, 0.05, **convention)
    assert set(part.assignments) == set(domain.modes())
    a, p, n = part.counts()
    assert a + p + n == len(domain)
    for asg in part.assignments.values():
        assert asg.mode_class in (ACTIVE, PASSIVE, NEUTRAL)


@pytest.mark.parametrize("spec_name", ["sphere", "square"])
def test_neutral_nonincreasing_in_threshold(spec_name):
    spec = (DispersionSpec("rossby_sphere") if spec_name == "sphere"
            else bve_square_spec())
    shape = "triangular" if spec.kind == "rossby_sphere" else "square"
    domain = SpectralDomain(10, shape)
    neutrals = [class_counts(spec, domain, om)[2]
                for om in (0.01, 0.03, 0.1, 0.3)]
    assert all(a >= b for a, b in zip(neutrals, neutrals[1:]))


def test_active_evidence_revalidates(sphere, sphere_t14):
    part = classify_modes(sphere, sphere_t14, 0.03)
    seen_any = False
    for asg in part.assignments.values():
        if asg.mode_class != ACTIVE:
            continue
        for ev in asg.evidence:
            if hasattr(ev, "members"):  # a resonant Triad
                seen_any = True
                assert ev.k1.m + ev.k2.m == ev.k3.m
                ws = [eval_frequency(sphere, k).omega for k in ev.members()]
                assert ws[0] + ws[1] - ws[2] == 0
            else:  # a CascadeStep bridge
                assert 0 < ev.abs_discrepancy <= part.omega_max
    assert seen_any


def test_passive_modes_carry_min_discrepancy(sphere):
    part = classify_modes(sphere, SpectralDomain(8, "triangular"), 0.3)
    for asg in part.assignments.values():
        if asg.mode_class == PASSIVE:
            assert asg.min_abs_discrepancy is not None
            assert 0 < asg.min_abs_discrepancy <= 0.3


# -- minimal near-resonant bridges -------------------------------------------

def test_minimal_bridge_matches_brute_force(sphere, sphere_t14):
    triad = classic_triad(sphere, sphere_t14)
    pair = (wv(4, 12), wv(5, 14))
    step = minimal_near_resonant(sphere, sphere_t14, triad, pair)
    # brute force over all candidate completions (9, n), n <= 14; the
    # magnitude form |2/39 + 1/21 - 2*9/(n(n+1))| mirrors the signed
    # residual of the stored negative frequencies
    target = Fraction(2, 39) + Fraction(1, 21)
    best = None
    for n in range(9, 15):
        if (9, n) == (9, 13):
            continue
        om = target - Fraction(2 * 9, n * (n + 1))
        if best is None or abs(om) < abs(best[1]):
            best = (wv(9, n), om)
    assert step.bridge_wave == best[0] == wv(9, 14)
    assert abs(step.bridge_discrepancy) == abs(best[1]) == Fraction(6, 455)
    ws = [eval_frequency(sphere, k).omega for k in (*pair, step.bridge_wave)]
    assert step.bridge_discrepancy == ws[0] + ws[1] - ws[2]


def test_minimal_bridge_no_completion_is_none(sphere):
    domain = SpectralDomain(5, "triangular")
    triads = find_exact_triads(sphere, domain)
    triad = triads[0]  # ((1,3),(2,5),(3,4))
    # donor pair (2,5),(3,4): zonal sum needs m=5 <= 5 with n >= 5: only
    # (5,5) exists; exclude-own-members never triggers, so a bridge exists;
    # instead use a pair whose sum exceeds the truncation
    pair = (wv(2, 5), wv(3, 4))
    step = minimal_near_resonant(sphere, domain, triad, pair)
    assert step is not None
    domain4 = SpectralDomain(4, "triangular")
    # same pair in T=4: m=5 > 4, no completion at all
    step = minimal_near_resonant(sphere, domain4, triad, pair)
    assert step is None


def test_minimal_bridge_requires_resonant_triad(sphere, sphere_t14):
    near = [t for t in
            __import__("wavetriads").find_near_triads(sphere, sphere_t14, 0.2)
            if t.discrepancy != 0]
    with pytest.raises(UsageError):
        minimal_near_resonant(sphere, sphere_t14, near[0],
                              (near[0].k1, near[0].k2))


@pytest.mark.parametrize("pair", [(wv(4, 12), wv(5, 13)),
                                  (wv(1, 2), wv(9, 13)),
                                  (wv(4, 12), wv(4, 12)),
                                  (wv(4, 12), wv(5, 14), wv(9, 13))])
def test_minimal_bridge_refuses_a_pair_outside_the_triad(sphere, sphere_t14,
                                                         pair):
    triad = classic_triad(sphere, sphere_t14)
    with pytest.raises(UsageError, match="donor pair"):
        minimal_near_resonant(sphere, sphere_t14, triad, pair)


def test_bridge_not_below_domain_minimum(sphere, sphere_t14):
    bound = discrepancy_lower_bound(sphere, sphere_t14).finite_min.value
    triad = classic_triad(sphere, sphere_t14)
    for pair in ((triad.k1, triad.k2), (triad.k1, triad.k3),
                 (triad.k2, triad.k3)):
        step = minimal_near_resonant(sphere, sphere_t14, triad, pair)
        if step is not None:
            assert abs(step.bridge_discrepancy) >= bound


# -- cascades -----------------------------------------------------------------

def test_cascade_depth_one_is_min_over_pairs(sphere, sphere_t14):
    triad = classic_triad(sphere, sphere_t14)
    steps = cascade_path(sphere, sphere_t14, triad, depth=1)
    assert len(steps) == 1
    per_pair = [minimal_near_resonant(sphere, sphere_t14, triad, p)
                for p in ((triad.k1, triad.k2), (triad.k1, triad.k3),
                          (triad.k2, triad.k3))]
    best = min((s.abs_discrepancy, s.bridge_wave) for s in per_pair if s)
    assert (steps[0].abs_discrepancy, steps[0].bridge_wave) == best


def test_cascade_three_steps_stable(sphere, sphere_t14):
    triad = classic_triad(sphere, sphere_t14)
    first = cascade_path(sphere, sphere_t14, triad, depth=3)
    second = cascade_path(sphere, sphere_t14, triad, depth=3)
    assert [(s.bridge_wave, s.bridge_discrepancy) for s in first] == \
           [(s.bridge_wave, s.bridge_discrepancy) for s in second]
    assert 1 <= len(first) <= 3
    for s in first:
        assert s.abs_discrepancy > 0


def test_cascade_validates_input(sphere, sphere_t14):
    triad = classic_triad(sphere, sphere_t14)
    for depth in (0, 2.5, math.nan, math.inf, Fraction(5, 2)):
        with pytest.raises(UsageError, match="depth"):
            cascade_path(sphere, sphere_t14, triad, depth=depth)


def test_cascade_rejects_a_non_resonant_seed(sphere, sphere_t14):
    near = next(t for t in find_near_triads(sphere, sphere_t14, 1e-2)
                if not t.is_exact)
    with pytest.raises(UsageError, match="resonant seed"):
        cascade_path(sphere, sphere_t14, near, depth=1)


@pytest.mark.parametrize("member", [(-1, 3), (0, 3), (2.5, 3)])
@pytest.mark.parametrize("spec", [DispersionSpec("rossby_sphere"),
                                  bve_square_spec()], ids=["sphere", "plane"])
def test_bridge_searches_refuse_a_member_that_is_no_mode(spec, member):
    """The bridge searches read the kernel table at the triad's members, so
    a member that is no mode raises DomainError instead of reading another
    cell (a negative index wraps round)."""
    ks = (WaveVector(*member), wv(2, 4), wv(1, 5))
    triad = Triad(*ks, (1.0, 1.0, 2.0), 0.0, 0.0)
    domain = SpectralDomain(8)
    with pytest.raises(DomainError, match="wave vector"):
        minimal_near_resonant(spec, domain, triad, ks[:2])
    with pytest.raises(DomainError, match="wave vector"):
        cascade_path(spec, domain, triad, 2)


def test_cascade_takes_an_integral_float_depth(sphere, sphere_t14):
    triad = classic_triad(sphere, sphere_t14)
    assert cascade_path(sphere, sphere_t14, triad, depth=2.0) == \
        cascade_path(sphere, sphere_t14, triad, depth=2)


def test_cascade_steps_minimal_by_brute_force(sphere, sphere_t14):
    """Each step's bridge beats every other completion of every donor pair
    of its source triad (independent enumeration over the sum wavenumber
    and all latitudinal indices)."""
    triad = classic_triad(sphere, sphere_t14)
    T = sphere_t14.truncation
    freqs = {k: eval_frequency(sphere, k).omega
             for k in sphere_t14.modes()}
    for step in cascade_path(sphere, sphere_t14, triad, depth=3):
        src = set(step.source_triad.members())
        best = None
        for ka, kb in [(a, b) for a in src for b in src if a < b]:
            m3 = ka.m + kb.m
            if m3 > T:
                continue
            for n3 in range(m3, T + 1):
                w = WaveVector(m3, n3)
                if w in src:
                    continue
                om = freqs[ka] + freqs[kb] - freqs[w]
                if om == 0:
                    continue
                if best is None or abs(om) < abs(best):
                    best = om
        assert best is not None
        assert abs(step.bridge_discrepancy) == abs(best)


# -- geometry sensitivity -----------------------------------------------------

def test_mode_2_4_changes_class_between_square_and_rectangle():
    domain = SpectralDomain(10, "square")
    sq = classify_modes(bve_square_spec(), domain, REMARK_OMEGA_MAX,
                        **REMARK_CONVENTION)
    rect = classify_modes(bve_rectangle_quarter_spec(), domain,
                          REMARK_OMEGA_MAX, **REMARK_CONVENTION)
    k = wv(2, 4)
    assert sq.mode_class(k) == ACTIVE
    assert rect.mode_class(k) == NEUTRAL


def test_zonal_square_seed_contains_2_4():
    seeds = classify_modes(bve_square_spec(), SpectralDomain(10, "square"),
                           REMARK_OMEGA_MAX, patterns="sum",
                           closure="zonal").resonant_triads
    assert any(wv(2, 4) in t.members() for t in seeds)


# -- one kernel table per call ------------------------------------------------

@pytest.mark.parametrize("spec, domain, omega_max, convention", [
    (bve_square_spec(), SpectralDomain(14), 0.01, {"closure": "zonal"}),
    (bve_square_spec(), SpectralDomain(12), SQUARE_TABLE_OMEGA_MAX,
     PLANE_TABLE_CONVENTION),
    (DispersionSpec("rossby_sphere"), SpectralDomain(14, "triangular"),
     SPHERE_TABLE_OMEGA_MAX, SPHERE_TABLE_CONVENTION),
], ids=["plane-zonal", "plane-box", "sphere"])
def test_classification_evaluates_each_mode_at_most_once(
        monkeypatch, spec, domain, omega_max, convention):
    """Seeds and every bridge search of one classification read one
    frequency memo, so eval_frequency runs at most once per domain mode."""
    calls = []

    def counting(spec, k):
        calls.append(k)
        return eval_frequency(spec, k)

    for mod in (search, classify):
        if hasattr(mod, "eval_frequency"):
            monkeypatch.setattr(mod, "eval_frequency", counting)
    part = classify_modes(spec, domain, omega_max, **convention)
    assert part.bridges and len(calls) <= len(domain)


@pytest.mark.parametrize("spec, domain", [
    (gc_spec(75), SpectralDomain(12)),
    (DispersionSpec("bve_plane"), SpectralDomain(12)),
    (DispersionSpec("rossby_sphere"), SpectralDomain(12, "triangular")),
], ids=["gc75", "bve-plane", "sphere"])
def test_bound_evaluates_each_mode_at_most_once(monkeypatch, spec, domain):
    """The bound's scalar table, its rebuilt witness candidates and the
    rational lcm read one frequency memo: one eval_frequency per mode."""
    calls = []

    def counting(spec, k):
        calls.append(k)
        return eval_frequency(spec, k)

    monkeypatch.setattr(search, "eval_frequency", counting)
    rep = discrepancy_lower_bound(spec, domain)
    assert rep.finite_min is not None
    assert len(calls) == len(set(calls)) <= len(domain)


def count_calls(monkeypatch, name):
    """A list that records each call of the dispersion function ``name``,
    wherever a wavetriads module binds it."""
    calls, original = [], getattr(dispersion, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("wavetriads")
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, counting)
    return calls


@pytest.mark.parametrize("spec, domain, omega_max, convention", [
    (bve_square_spec(), SpectralDomain(12), SQUARE_TABLE_OMEGA_MAX,
     PLANE_TABLE_CONVENTION),
    (bve_square_spec(), SpectralDomain(10), 0.05, {"closure": "zonal"}),
    (gc_spec(75), SpectralDomain(12), 0.5, {"patterns": "all"}),
    (DispersionSpec("rossby_sphere"), SpectralDomain(14, "triangular"),
     SPHERE_TABLE_OMEGA_MAX, SPHERE_TABLE_CONVENTION),
], ids=["plane-box", "plane-zonal", "gc75", "sphere"])
def test_each_call_builds_one_table(monkeypatch, spec, domain, omega_max,
                                    convention):
    """Each public call builds one kernel table and reads every frequency
    it returns from it: one omega grid on floats (a classification once
    made a second for its bridges) and no eval_frequency on any kind.
    The cascade and the bridge search start from a seed of the
    classification."""
    kw = {k: v for k, v in convention.items() if k != "bridge_mode"}
    pattern_kw = {k: v for k, v in kw.items() if k != "n_selection"}
    seeds = classify_modes(spec, domain, omega_max, **convention)\
        .resonant_triads
    grids = count_calls(monkeypatch, "omega_grid")
    scalars = count_calls(monkeypatch, "eval_frequency")
    runs = {
        "near": lambda: find_near_triads(spec, domain, 0.05, **pattern_kw),
        "maxd": lambda: find_max_discrepancy_triads(spec, domain, 0.5,
                                                    **pattern_kw),
        "bound": lambda: discrepancy_lower_bound(
            spec, domain, kw.get("closure", "auto")).finite_min,
        "classify": lambda: classify_modes(spec, domain, omega_max,
                                           **convention).bridges,
    }
    if spec.exactness:
        runs["exact"] = lambda: find_exact_triads(spec, domain)
    if seeds:
        runs["cascade"] = lambda: cascade_path(spec, domain, seeds[0], 3, **kw)
        runs["bridge"] = lambda: [minimal_near_resonant(
            spec, domain, seeds[0], (seeds[0].k1, seeds[0].k2), **kw)]
    for name, run in runs.items():
        del grids[:], scalars[:]
        assert run() or name == "classify" and not seeds, name
        assert len(grids) == (0 if spec.exactness else 1), name
        assert scalars == [], name
    assert seeds or spec.kind == "gravity_capillary"


# -- convention validation ----------------------------------------------------

@pytest.mark.parametrize("closure", ["both", "box"])
def test_sphere_classification_rejects_non_zonal_closure(sphere, closure):
    """The exact path is zonal-only; it must not mix zonal seeds with
    component-wise or box bridges."""
    with pytest.raises(UsageError, match="zonal"):
        classify_modes(sphere, SpectralDomain(14, "triangular"), 0.03,
                       closure=closure, n_selection="parity")


def test_unknown_n_selection_rejected(sphere, sphere_t14):
    dom = SpectralDomain(10, "triangular")
    with pytest.raises(UsageError, match="n_selection"):
        classify_modes(sphere, dom, 0.03, n_selection="partiy")
    with pytest.raises(UsageError, match="n_selection"):
        class_counts(sphere, dom, 0.03, n_selection="partiy")
    seed = classic_triad(sphere, sphere_t14)
    with pytest.raises(UsageError, match="n_selection"):
        cascade_path(sphere, sphere_t14, seed, 2, n_selection="partiy")
    with pytest.raises(UsageError, match="n_selection"):
        minimal_near_resonant(sphere, sphere_t14, seed, (seed.k1, seed.k2),
                              n_selection="partiy")


def test_unknown_bridge_mode_rejected_before_the_walk(sphere, sphere_t14,
                                                      monkeypatch):
    """The convention is checked before the candidate walk, not after it
    in the bridge selection."""
    def walk(*args):
        raise AssertionError("the candidate walk ran")

    monkeypatch.setattr(classify, "_walk", walk)
    with pytest.raises(UsageError, match="bridge_mode"):
        classify_modes(sphere, sphere_t14, 0.03, bridge_mode="per_wave")


def test_unknown_patterns_rejected_by_classifier(sphere, sphere_t14):
    with pytest.raises(UsageError, match="patterns"):
        classify_modes(sphere, sphere_t14, 0.03, patterns="any")
    seed = classic_triad(sphere, sphere_t14)
    with pytest.raises(UsageError, match="patterns"):
        cascade_path(sphere, sphere_t14, seed, 2, patterns="any")
