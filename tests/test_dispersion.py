import json
import math
from fractions import Fraction

import pytest

from wavetriads import (
    BasinGeometry,
    DispersionSpec,
    DomainError,
    SpectralDomain,
    WaveVector,
    eval_frequency,
    rescale_for_basin,
    to_hz,
)
from conftest import L2_TRIAD, TYPE_A, gc_spec, wv

TWO_PI = 2.0 * math.pi


def test_rossby_frequency_is_exact_rational(sphere):
    f = eval_frequency(sphere, wv(1, 2))
    assert f.omega == Fraction(-1, 3)
    assert f.is_exact
    # equality is exact, never tolerance-based
    again = eval_frequency(sphere, wv(1, 2))
    assert again.omega == f.omega


def test_capillary_perfect_square():
    spec = DispersionSpec("capillary")
    assert eval_frequency(spec, wv(3, 4)).omega == 125.0


@pytest.mark.parametrize("mu", sorted(TYPE_A))
def test_gravity_capillary_reproduces_published_hz(mu):
    spec = gc_spec(mu)
    k1, k2, k3, hz = TYPE_A[mu]
    for k, ref in zip((k1, k2, k3), hz):
        got = eval_frequency(spec, wv(*k)).hz
        assert abs(got - ref) < 1e-3, (mu, k, got, ref)


def test_gravity_tanh_formula():
    spec = DispersionSpec("gravity_tanh", alpha=0.5)
    k = math.sqrt(1 + 4)
    assert eval_frequency(spec, wv(1, 2)).omega == pytest.approx(
        k * math.tanh(0.5 * k), rel=1e-15)


def test_bve_plane_forms():
    printed = DispersionSpec("bve_plane")
    squared = DispersionSpec("bve_plane", plane_form="squared")
    assert eval_frequency(printed, wv(2, 3)).omega == pytest.approx(2 / 6)
    assert eval_frequency(squared, wv(2, 3)).omega == pytest.approx(2 / 13)


def test_to_hz():
    assert to_hz(0.0) == 0.0
    assert to_hz(TWO_PI) == 1.0
    # 55.0646 rad/s is the first driving frequency of the mu/nu=75 triad
    assert abs(to_hz(55.0646) - 8.7638) < 1e-4


def test_hz_consistency_within_ulp():
    spec = gc_spec(75)
    for m in range(1, 12):
        for n in range(1, 12):
            w = eval_frequency(spec, wv(m, n)).omega
            back = to_hz(w) * TWO_PI
            assert abs(back - w) <= 4 * math.ulp(w)


def test_monotonic_in_scalar_wavenumber():
    spec = gc_spec(75)
    vals = sorted((m * m + n * n, eval_frequency(spec, wv(m, n)).omega)
                  for m in range(1, 31) for n in range(1, 31))
    for (k2a, wa), (k2b, wb) in zip(vals, vals[1:]):
        if k2a < k2b:
            assert wa < wb


def test_rescale_identity_at_unit_square():
    spec = gc_spec(16)
    same = rescale_for_basin(spec, 1.0, 1.0)
    for m in range(1, 31, 3):
        for n in range(1, 31, 3):
            assert (eval_frequency(same, wv(m, n)).omega
                    == eval_frequency(spec, wv(m, n)).omega)


def test_rescale_l2_reproduces_published_frequencies():
    spec = rescale_for_basin(gc_spec(16), 2.0, 2.0)
    k1, k2, k3, hz = L2_TRIAD
    got = [eval_frequency(spec, wv(*k)).hz for k in (k1, k2, k3)]
    for g, ref in zip(got, hz):
        assert abs(g - ref) < 1e-3
    # the published values close under the frequency-sum condition
    assert abs(hz[0] + hz[1] - hz[2]) < 1e-3
    assert abs(got[0] + got[1] - got[2]) / got[0] < 1e-4


def test_rescale_flips_near_resonance_of_unit_square_triad():
    unit = gc_spec(16)
    l2 = rescale_for_basin(unit, 2.0, 2.0)
    ks = [wv(1, 6), wv(4, 5), wv(5, 11)]

    def d_ratio(spec):
        ws = [eval_frequency(spec, k).omega for k in ks]
        return abs(ws[0] + ws[1] - ws[2]) / min(ws)

    assert d_ratio(unit) <= 1e-5
    assert d_ratio(l2) > 1e-3


def test_rescale_rejects_bad_input(sphere):
    with pytest.raises(DomainError):
        rescale_for_basin(gc_spec(16), 0.0, 1.0)
    with pytest.raises(DomainError):
        rescale_for_basin(sphere, 2.0, 2.0)


def test_domain_sizes_and_membership():
    sq = SpectralDomain(7, "square")
    tri = SpectralDomain(7, "triangular")
    assert len(sq) == 49 and len(list(sq.modes())) == 49
    assert len(tri) == 28 and len(list(tri.modes())) == 28
    assert wv(5, 3) in sq and wv(5, 3) not in tri
    assert wv(3, 5) in tri


def test_invalid_wavevectors_raise():
    spec = gc_spec(75)
    for bad in ((0, 1), (1, 0), (-2, 3)):
        with pytest.raises(DomainError):
            eval_frequency(spec, WaveVector(*bad))


def test_spec_validation():
    with pytest.raises(DomainError):
        DispersionSpec("gravity_capillary")  # missing mu/nu
    with pytest.raises(DomainError):
        DispersionSpec("gravity_tanh")
    with pytest.raises(DomainError):
        DispersionSpec("no_such_kind")
    with pytest.raises(DomainError):
        BasinGeometry("rectangle", lx=-1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_basin_rejects_non_finite_sides(bad):
    for lx, ly in ((bad, 1.0), (1.0, bad)):
        with pytest.raises(DomainError):
            BasinGeometry("rectangle", lx=lx, ly=ly)
        with pytest.raises(DomainError):
            rescale_for_basin(gc_spec(16), lx, ly)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("kind, field", [
    ("gravity_capillary", "g"), ("gravity_capillary", "mu_over_nu"),
    ("gravity_tanh", "alpha"), ("capillary", "mu_over_nu")])
def test_spec_rejects_non_finite_parameters(kind, field, bad):
    params = {"gravity_capillary": {"mu_over_nu": 75.0},
              "gravity_tanh": {"alpha": 0.5}, "capillary": {}}[kind]
    with pytest.raises(DomainError):
        DispersionSpec(kind, **{**params, field: bad})


def test_config_round_trip():
    spec = DispersionSpec("gravity_capillary", mu_over_nu=47.0,
                          basin=BasinGeometry("rectangle", lx=2.0, ly=3.0))
    cfg = json.loads(json.dumps(spec.to_config()))
    assert DispersionSpec.from_config(cfg) == spec


def test_config_rejects_unknown_keys():
    with pytest.raises(DomainError):
        DispersionSpec.from_config({"kind": "capillary", "bogus": 1})
    with pytest.raises(DomainError):
        DispersionSpec.from_config({"kind": "capillary",
                                    "basin": {"kind": "unit_square", "zz": 2}})
