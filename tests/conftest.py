"""Shared fixtures: dispersion specs, domains, and the published triad
tables the acceptance suite reproduces (wave numbers in brackets,
frequencies in Hz)."""

import os

import pytest
from hypothesis import settings, strategies as st

from wavetriads import (BasinGeometry, DispersionSpec, SpectralDomain,
                        WaveVector)
from wavetriads import classify, search

# Property tests (hypothesis): "ci" replays a fixed set of examples, so a
# run cannot flake; "dev" draws fresh ones.  Select with HYPOTHESIS_PROFILE.
settings.register_profile("ci", derandomize=True, max_examples=20,
                          deadline=None, print_blob=True)
settings.register_profile("dev", max_examples=20, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

# Near-resonant ("Type A") triads per surface-tension ratio:
# (k1, k2, k3, (hz1, hz2, hz3))
TYPE_A = {
    75: ((1, 2), (9, 1), (10, 3), (8.7638, 40.4435, 49.2073)),
    47: ((1, 26), (16, 4), (17, 30), (147.0295, 75.8317, 222.8612)),
    27: ((1, 10), (28, 6), (29, 16), (30.7235, 129.5023, 160.2258)),
    16: ((1, 6), (4, 5), (5, 11), (15.5681, 16.2945, 31.8626)),
}

# Large-discrepancy ("Type B") triads.
TYPE_B = {
    75: ((11, 15), (14, 15), (25, 30), (112.6460, 130.0788, 337.7987)),
    47: ((14, 14), (15, 16), (29, 30), (98.6504, 114.4728, 295.8396)),
    27: ((4, 4), (26, 26), (30, 30), (16.2595, 186.8502, 230.8321)),
    16: ((5, 5), (25, 25), (30, 30), (17.8606, 137.0759, 178.8991)),
}

# The resonant triad of the L=2 square basin at mu/nu = 16.
L2_TRIAD = ((1, 14), (23, 13), (24, 27), (25.0785, 50.2490, 75.3275))

# Published mode-count table: resonator -> truncation -> (active, neutral).
PUBLISHED_COUNTS = {
    "sphere": {10: (4, 3), 20: (51, 3)},
    "square": {10: (15, 0), 20: (53, 0)},
    "rectangle": {10: (4, 75), 20: (16, 300)},
}


def gc_spec(mu: float) -> DispersionSpec:
    return DispersionSpec("gravity_capillary", mu_over_nu=float(mu))


@pytest.fixture
def sphere():
    return DispersionSpec("rossby_sphere")


@pytest.fixture
def sphere_t14():
    return SpectralDomain(14, "triangular")


@pytest.fixture
def square_t30():
    return SpectralDomain(30, "square")


def wv(m, n):
    return WaveVector(m, n)


def ari_hits(spec, domain, omega_max, patterns="sum", closure="auto",
             skip_equal_n_pairs=True):
    """The approximate-resonance hits 0 < |Omega| <= omega_max of the
    classifier's walk, without n-selection: arrays (m1, n1, m2, n2, n3,
    |Omega|) in scan order."""
    rule = search._dispatch(spec, domain, closure, patterns)
    return classify._walk(search._table(spec, domain.truncation), domain,
                          rule, classify._n_rule(rule, "none"), patterns,
                          skip_equal_n_pairs, omega_max)[1]


@st.composite
def pruning_specs(draw):
    """Every float kind (both plane forms) on a unit, L-square or
    rectangular basin, with drawn physical parameters."""
    kind, form = draw(st.sampled_from([
        ("capillary", "printed"), ("gravity_capillary", "printed"),
        ("gravity_tanh", "printed"), ("bve_plane", "printed"),
        ("bve_plane", "squared")]))
    basin = draw(st.sampled_from(["unit", "L-square", "rectangle"]))
    if basin == "unit":
        geometry = BasinGeometry("unit_square")
    elif basin == "L-square":
        side = draw(st.floats(1.5, 3.0))
        geometry = BasinGeometry("rectangle", side, side)
    else:
        geometry = BasinGeometry("rectangle", 1.0, draw(st.floats(1.2, 4.0)))
    return DispersionSpec(
        kind, basin=geometry, plane_form=form,
        mu_over_nu=(draw(st.floats(16.0, 75.0))
                    if kind == "gravity_capillary" else None),
        alpha=draw(st.floats(0.2, 2.0)) if kind == "gravity_tanh" else None)
