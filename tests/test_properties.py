"""Property tests: the invariants of a mode partition over every kind,
closure and small truncation, the configuration round trip of a
dispersion spec, and the sign-pattern rule against its sign-product
form."""

import json
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, strategies as st

from wavetriads import BasinGeometry, DispersionSpec, SpectralDomain
from wavetriads.classify import ACTIVE, NEUTRAL, PASSIVE, classify_modes
from wavetriads.errors import DomainError
from wavetriads.triad import SIGN_PATTERNS, _pattern

SPECS = [
    DispersionSpec("rossby_sphere"),
    DispersionSpec("capillary"),
    DispersionSpec("gravity_capillary", mu_over_nu=75.0),
    DispersionSpec("gravity_capillary", mu_over_nu=16.0,
                   basin=BasinGeometry("rectangle", 1.0, 1.7)),
    DispersionSpec("gravity_tanh", alpha=0.5),
    DispersionSpec("bve_plane"),
    DispersionSpec("bve_plane", plane_form="squared"),
]


@st.composite
def conventions(draw):
    """A spec with a closure and domain shape it accepts: the sphere's
    exact path is zonal-only, and only zonal closure takes a triangular
    domain."""
    spec = draw(st.sampled_from(SPECS))
    closures = (["zonal"] if spec.exactness else ["both", "zonal", "box"])
    closure = draw(st.sampled_from(closures))
    shape = draw(st.sampled_from(["square", "triangular"] if closure == "zonal"
                                 else ["square"]))
    return spec, closure, shape


@given(convention=conventions(), T=st.integers(1, 7),
       patterns=st.sampled_from(["sum", "all"]),
       n_selection=st.sampled_from(["none", "parity", "triangle", "both"]),
       bridge_mode=st.sampled_from(["per_pair", "per_triad"]),
       omega_max=st.floats(1e-4, 100.0))
def test_partition_invariants(convention, T, patterns, n_selection,
                              bridge_mode, omega_max):
    spec, closure, shape = convention
    domain = SpectralDomain(T, shape)
    part = classify_modes(spec, domain, omega_max, patterns=patterns,
                          closure=closure, n_selection=n_selection,
                          bridge_mode=bridge_mode)
    # every mode has exactly one class
    assert set(part.assignments) == set(domain.modes())
    assert all(a.mode == k for k, a in part.assignments.items())
    by_class = {c: part.modes_in_class(c) for c in (ACTIVE, PASSIVE, NEUTRAL)}
    assert sorted(k for ks in by_class.values() for k in ks) == \
        sorted(domain.modes())
    assert sum(part.counts()) == len(domain)
    for t in part.resonant_triads:
        for k in t.members():
            a = part.assignments[k]
            assert a.mode_class == ACTIVE and a.min_abs_discrepancy == 0.0
    for k in by_class[PASSIVE]:
        assert part.assignments[k].min_abs_discrepancy <= omega_max
    for k in by_class[NEUTRAL]:
        assert part.assignments[k].min_abs_discrepancy is None


BASINS = st.one_of(
    st.just(BasinGeometry()),
    st.builds(BasinGeometry, st.just("rectangle"), st.floats(0.1, 10.0),
              st.floats(0.1, 10.0)),
    st.just(BasinGeometry("sphere")),
    st.just(BasinGeometry("plane")),
)
POSITIVE = st.floats(1e-3, 1e3)


@given(kind=st.sampled_from(DispersionSpec._KINDS), g=POSITIVE,
       mu_over_nu=st.none() | POSITIVE, alpha=st.none() | POSITIVE,
       basin=BASINS, plane_form=st.sampled_from(["printed", "squared"]))
def test_config_round_trip(kind, g, mu_over_nu, alpha, basin, plane_form):
    try:
        spec = DispersionSpec(kind, g=g, mu_over_nu=mu_over_nu, alpha=alpha,
                              basin=basin, plane_form=plane_form)
    except DomainError:
        assume(False)
    cfg = json.loads(json.dumps(spec.to_config()))
    assert DispersionSpec.from_config(cfg) == spec


def test_plane_form_off_the_plane_round_trips():
    """to_config() writes plane_form for bve_plane only, so every other
    kind normalises it, as the sphere normalises its basin."""
    spec = DispersionSpec("capillary", plane_form="squared")
    assert spec.plane_form == "printed"
    assert DispersionSpec.from_config(spec.to_config()) == spec


def signed_products(ws, patterns):
    """The sign-pattern rule as s1*w1 + s2*w2 + s3*w3 per pattern, the
    first least |Omega| winning: the form :func:`_pattern` replaced."""
    if patterns == "sum":
        return ws[0] + ws[1] - ws[2], (1, 1, -1)
    best = None
    for signs in SIGN_PATTERNS:
        om = signs[0] * ws[0] + signs[1] * ws[1] + signs[2] * ws[2]
        if best is None or abs(om) < abs(best[0]):
            best = (om, signs)
    return best


# Small pools make ties between patterns, and signed zeros, common.
FLOATS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5]) | st.floats()
FRACTIONS = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 2)]) \
    | st.fractions()


@given(ws=st.tuples(FLOATS, FLOATS, FLOATS) | st.tuples(
           FRACTIONS, FRACTIONS, FRACTIONS),
       patterns=st.sampled_from(["sum", "all"]))
def test_pattern_equals_its_sign_product_form(ws, patterns):
    """Same residual and signs: floats bit for bit (by ``float.hex``, so
    +0.0 and -0.0 differ), Fractions exactly."""
    om, i = (x.tolist()[0] for x in _pattern(
        *(np.array([w]) for w in ws), patterns))
    signs, (ref, ref_signs) = SIGN_PATTERNS[i], signed_products(ws, patterns)
    assert signs == ref_signs and type(om) is type(ref)
    if isinstance(om, float):
        assert om.hex() == ref.hex()
    else:
        assert om == ref
