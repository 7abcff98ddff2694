"""Property tests: the invariants of a mode partition over every kind,
closure and small truncation, and the configuration round trip of a
dispersion spec."""

import json

from hypothesis import assume, given, strategies as st

from wavetriads import BasinGeometry, DispersionSpec, SpectralDomain
from wavetriads.classify import ACTIVE, NEUTRAL, PASSIVE, classify_modes
from wavetriads.errors import DomainError

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
