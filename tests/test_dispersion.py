import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from wavetriads import (
    BasinGeometry,
    DispersionSpec,
    DomainError,
    SpectralDomain,
    WaveVector,
    eval_frequency,
    find_exact_triads,
    find_near_triads,
    rescale_for_basin,
    to_hz,
)
from wavetriads.dispersion import omega_grid
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


COMPONENTS = st.one_of(st.integers(-2, 9), st.integers(-2, 9).map(float),
                       st.floats(-2.0, 9.0), st.sampled_from(
                           [math.nan, math.inf, -math.inf, 2.5, 3.0000001]))


@given(T=st.integers(1, 7), shape=st.sampled_from(["square", "triangular"]),
       m=COMPONENTS, n=COMPONENTS, vector=st.booleans())
@example(T=5, shape="square", m=2.5, n=3, vector=False)
@example(T=5, shape="triangular", m=2.5, n=3, vector=True)
@example(T=5, shape="triangular", m=math.nan, n=3, vector=False)
def test_domain_membership_agrees_with_its_modes(T, shape, m, n, vector):
    """``k in domain`` holds exactly for the k that ``modes()`` yields:
    integral components only, whether k is a tuple or a WaveVector, so a
    fractional or NaN component is never a member."""
    domain = SpectralDomain(T, shape)
    k = WaveVector(m, n) if vector else (m, n)
    assert (k in domain) == (k in set(domain.modes()))


@pytest.mark.parametrize("bad", [0, -3, 12.5, math.nan, math.inf])
def test_domain_rejects_a_non_integral_or_small_truncation(bad):
    with pytest.raises(DomainError, match="truncation"):
        SpectralDomain(bad)


def test_domain_stores_an_integral_truncation_as_int(sphere):
    dom = SpectralDomain(12.0, "triangular")
    assert type(dom.truncation) is int
    assert dom == SpectralDomain(12, "triangular")
    assert find_exact_triads(sphere, dom) == \
        find_exact_triads(sphere, SpectralDomain(12, "triangular"))
    square = SpectralDomain(np.int64(8))
    assert type(square.truncation) is int
    assert len(find_near_triads(gc_spec(75), square, 1e-2)) == \
        len(find_near_triads(gc_spec(75), SpectralDomain(8), 1e-2))


def test_invalid_wavevectors_raise():
    spec = gc_spec(75)
    # NaN and inf must fail the check, not reach int() and escape as
    # ValueError or OverflowError.
    for bad in ((0, 1), (1, 0), (-2, 3), (math.nan, 1), (1, math.nan),
                (math.inf, 2), (2, -math.inf)):
        with pytest.raises(DomainError):
            eval_frequency(spec, WaveVector(*bad))
    # A frequency with no finite float value (the float relation overflows
    # or divides by zero, or the sphere's exact value is past float range)
    # is a domain error naming the kind and the mode.
    tiny = BasinGeometry("rectangle", 1e-300, 1e-300)
    for spec, k in ((gc_spec(75), (10 ** 200, 1)),
                    (DispersionSpec("bve_plane"), (10 ** 400, 1)),
                    (DispersionSpec("gravity_tanh", alpha=1.0),
                     (10 ** 400, 1)),
                    (DispersionSpec("capillary"), (10 ** 160, 1)),
                    (DispersionSpec("gravity_capillary", mu_over_nu=75.0,
                                    basin=tiny), (3, 4)),
                    (DispersionSpec("rossby_sphere"), (10 ** 400, 3))):
        with pytest.raises(DomainError, match=f"{spec.kind} frequency at "
                           rf"\[{k[0]},{k[1]}\]"):
            eval_frequency(spec, WaveVector(*k))


def test_spec_validation():
    with pytest.raises(DomainError):
        DispersionSpec("gravity_capillary")  # missing mu/nu
    with pytest.raises(DomainError):
        DispersionSpec("gravity_tanh")
    with pytest.raises(DomainError):
        DispersionSpec("no_such_kind")
    with pytest.raises(DomainError):
        BasinGeometry("rectangle", lx=-1.0)


@pytest.mark.parametrize("kind", ["unit_square", "sphere", "plane"])
def test_basin_without_sides_refuses_them(kind):
    """Only a rectangle has sides: the sphere and the plane must not
    evaluate as a 2 x 3 rectangle under another name."""
    assert BasinGeometry(kind) == BasinGeometry(kind, 1.0, 1.0)
    for lx, ly in ((2.0, 3.0), (2.0, 1.0), (1.0, 0.5)):
        with pytest.raises(DomainError, match=f"{kind} basin requires"):
            BasinGeometry(kind, lx, ly)


@pytest.mark.parametrize("spec", [
    dict(kind="capillary"), dict(kind="gravity_capillary", mu_over_nu=75.0),
    dict(kind="gravity_tanh", alpha=0.5), dict(kind="bve_plane")])
def test_float_kinds_refuse_the_sphere_basin(spec):
    """A float relation has no form on the sphere; it must not evaluate as
    the unit square under that name.  The plane is a 1 x 1 basin."""
    with pytest.raises(DomainError, match="sphere basin"):
        DispersionSpec(**spec, basin=BasinGeometry("sphere"))
    with pytest.raises(DomainError, match="sphere basin"):
        DispersionSpec.from_config({**spec, "basin": {"kind": "sphere"}})
    plane = DispersionSpec(**spec, basin=BasinGeometry("plane"))
    assert eval_frequency(plane, wv(1, 2)) == eval_frequency(
        DispersionSpec(**spec), wv(1, 2))


def test_unknown_basin_kind_plane_form_and_domain_shape_raise():
    with pytest.raises(DomainError, match="basin kind"):
        BasinGeometry("torus")
    with pytest.raises(DomainError, match="plane_form"):
        DispersionSpec("bve_plane", plane_form="cubed")
    with pytest.raises(DomainError, match="domain shape"):
        SpectralDomain(5, "hexagonal")


def test_config_without_basin_takes_the_unit_square():
    spec = DispersionSpec.from_config({"kind": "capillary"})
    assert spec.basin == BasinGeometry("unit_square")
    assert spec == DispersionSpec("capillary")


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


@pytest.mark.parametrize("cfg, message", [
    ([1, 2], "must be an object, got list"),
    ("x", "must be an object, got str"),
    ({}, "'kind' is missing"),
    ({"kind": "capillary", "basin": "sphere"}, "'basin' must be an object"),
    ({"kind": "gravity_capillary", "mu_over_nu": "abc"},
     "'mu_over_nu' must be a number, got 'abc'"),
    ({"kind": "capillary", "g": [981]}, "'g' must be a number"),
    ({"kind": "capillary", "g": 10 ** 400}, "'g' must be a number"),
    ({"kind": "capillary", "basin": []}, "'basin' must be an object"),
    ({"kind": "capillary", "basin": {"kind": "rectangle", "lx": None}},
     "'basin lx' must be a number"),
])
def test_config_of_the_wrong_shape_raises_domain_error(cfg, message):
    with pytest.raises(DomainError, match=message):
        DispersionSpec.from_config(cfg)


def test_config_rejects_unknown_keys():
    with pytest.raises(DomainError):
        DispersionSpec.from_config({"kind": "capillary", "bogus": 1})
    with pytest.raises(DomainError):
        DispersionSpec.from_config({"kind": "capillary",
                                    "basin": {"kind": "unit_square", "zz": 2}})


# -- eval_frequency and omega_grid evaluate one expression per relation -------

def oracle_scalar(spec, m, n):
    """The scalar relations as eval_frequency wrote them, each kind on its
    own, before the scalar and grid paths shared one expression."""
    lx, ly = spec.basin.lx, spec.basin.ly
    if spec.kind == "capillary":
        return (((m * ly) ** 2 + (n * lx) ** 2) / (lx * ly)) ** 1.5
    if spec.kind == "gravity_capillary":
        g, mu = spec.g, spec.mu_over_nu
        if lx == ly:
            k = math.sqrt(m * m + n * n)
            return math.sqrt(g * k + mu * (k * k * k) / (lx * lx))
        s = (m * ly) ** 2 + (n * lx) ** 2
        area = lx * ly
        return math.sqrt(g * math.sqrt(s) / area
                         + mu * s ** 1.5 / (area * area))
    if spec.kind == "gravity_tanh":
        kk = math.sqrt(((m * ly) ** 2 + (n * lx) ** 2) / (lx * ly))
        return kk * math.tanh(spec.alpha * kk)
    kx, ky = m / lx, n / ly
    if spec.plane_form == "printed":
        return kx / (1.0 + kx + ky)
    return kx / (kx * kx + ky * ky)


FLOAT_KINDS = [("capillary", "printed"), ("gravity_capillary", "printed"),
               ("gravity_tanh", "printed"), ("bve_plane", "printed"),
               ("bve_plane", "squared")]
SIDES = st.floats(0.1, 10.0)


@pytest.mark.parametrize("kind, plane_form", FLOAT_KINDS)
@pytest.mark.parametrize("basin", ["unit", "L-square", "rectangle"])
@given(T=st.integers(1, 40), lx=SIDES, ly=SIDES,
       mu=st.floats(1.0, 100.0), g=st.floats(1.0, 2000.0),
       alpha=st.floats(0.01, 5.0),
       table=st.tuples(st.integers(1, 45), st.integers(1, 45)).filter(
           lambda mn: mn[0] != mn[1]))
@example(T=40, lx=2.0, ly=2.7, mu=75.0, g=981.0, alpha=0.7, table=(45, 3))
@example(T=40, lx=1.3, ly=0.7, mu=16.0, g=981.0, alpha=0.5, table=(2, 41))
@example(T=90, lx=1.0, ly=3.6179, mu=75.0, g=981.0, alpha=0.3,
         table=(120, 15))
def test_grid_and_scalar_match_the_per_kind_expressions(
        kind, plane_form, basin, T, lx, ly, mu, g, alpha, table):
    """eval_frequency bit for bit against the per-kind expressions it had
    before the scalar and grid paths shared one, and omega_grid, and the
    rectangular table (M, N) = ``table`` that the kernels read past the
    truncation, equal to eval_frequency in every cell, over the float
    kinds, both plane forms, and unit, L-square and rectangular basins
    (lx == ly picks the L-square form of gravity_capillary)."""
    if basin == "unit":
        geometry = BasinGeometry()
    elif basin == "L-square":
        geometry = BasinGeometry("rectangle", lx=lx, ly=lx)
    else:
        assume(lx != ly)
        geometry = BasinGeometry("rectangle", lx=lx, ly=ly)
    params = {"gravity_capillary": {"mu_over_nu": mu, "g": g},
              "gravity_tanh": {"alpha": alpha}}.get(kind, {})
    spec = DispersionSpec(kind, basin=geometry, plane_form=plane_form,
                          **params)
    W = omega_grid(spec, T)
    assert W.shape == (T + 1, T + 1)
    assert np.isnan(W[0]).all() and np.isnan(W[:, 0]).all()
    for m in range(1, T + 1):
        for n in range(1, T + 1):
            w = eval_frequency(spec, wv(m, n)).omega
            assert type(w) is float
            assert float.hex(w) == float.hex(oracle_scalar(spec, m, n))
            assert float.hex(float(W[m, n])) == float.hex(w), (m, n)
    M, N = table
    W = omega_grid(spec, M, N)
    assert W.shape == (M + 1, N + 1)
    assert np.isnan(W[0]).all() and np.isnan(W[:, 0]).all()
    for m in range(1, M + 1):
        for n in range(1, N + 1):
            assert float.hex(float(W[m, n])) == \
                float.hex(eval_frequency(spec, wv(m, n)).omega), (m, n)


def test_omega_grid_refuses_the_sphere(sphere):
    """The sphere's frequencies are exact; no float table is made for it."""
    with pytest.raises(DomainError):
        omega_grid(sphere, 5)
