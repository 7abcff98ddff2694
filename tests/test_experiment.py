import math
import tracemalloc
import warnings
from fractions import Fraction

import pytest

from wavetriads import (
    DispersionSpec,
    DomainError,
    SpectralDomain,
    UsageError,
    geometry_sweep,
    plan_experiment,
    planetary_amplitude_bound,
    rescale_for_basin,
    steepness_amplitude,
)
from wavetriads.experiment import _plan_columns
from wavetriads.report import sweep_to_record, to_json
from conftest import TYPE_A, TYPE_B, gc_spec, wv


def test_steepness_amplitude_values():
    assert steepness_amplitude(wv(3, 4), 0.1) == pytest.approx(0.02, abs=0)
    assert steepness_amplitude(wv(10, 3), 0.1) == pytest.approx(
        0.1 / math.sqrt(109), rel=1e-15)


def test_steepness_degenerate_and_warning_paths():
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        assert steepness_amplitude(wv(5, 5), 0.0) == 0.0
        steepness_amplitude(wv(5, 5), 0.5)
    assert len(rec) == 2
    with pytest.raises(DomainError):
        steepness_amplitude(wv(0, 1), 0.1)
    with pytest.raises(DomainError):
        steepness_amplitude(wv(1, 1), -0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_steepness_rejects_non_finite(bad):
    with pytest.raises(DomainError):
        steepness_amplitude(wv(1, 1), bad)
    for k in (wv(bad, 2), wv(2, bad)):
        with pytest.raises(DomainError):
            steepness_amplitude(k, 0.1)


def test_steepness_rejects_negative_zero():
    """-0.0 compares equal to 0, but its amplitudes would all print as
    -0.000000."""
    with pytest.raises(DomainError):
        steepness_amplitude(wv(1, 1), -0.0)
    with pytest.raises(DomainError):
        plan_experiment(gc_spec(75), SpectralDomain(1, "square"),
                        d_max=1e-5, d_min=0.1, epsilon=-0.0)


@pytest.mark.parametrize("m, n", [(math.nan, 5), (1, math.nan),
                                  (math.inf, 5), (1, math.inf)])
def test_planetary_bound_rejects_non_finite_wavenumbers(m, n):
    with pytest.raises(DomainError):
        planetary_amplitude_bound(m, n)


def test_planetary_bound_accepts_integral_floats():
    assert planetary_amplitude_bound(1.0, 3.0) == planetary_amplitude_bound(1, 3)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_plan_rejects_non_finite_steepness(bad):
    # T = 1 has no triad, so no amplitude is computed to catch it.
    with pytest.raises(DomainError):
        plan_experiment(gc_spec(75), SpectralDomain(1, "square"),
                        d_max=1e-5, d_min=0.1, epsilon=bad)


def test_steepness_inverse_property():
    for m in range(1, 12, 2):
        for n in range(1, 12, 3):
            k = wv(m, n)
            a = steepness_amplitude(k, 0.1)
            prod = a * math.hypot(m, n)
            assert abs(prod - 0.1) <= 2 * math.ulp(0.1)


def test_steepness_uses_rescaled_wavenumber():
    spec = rescale_for_basin(gc_spec(16), 1.0, 4.0)
    a = steepness_amplitude(wv(2, 4), 0.1, spec)
    norm = math.sqrt(((2 * 4.0) ** 2 + (4 * 1.0) ** 2) / 4.0)
    assert a == pytest.approx(0.1 / norm, rel=1e-15)


def test_planetary_amplitude_bound_exact_value():
    assert planetary_amplitude_bound(1, 3) == Fraction(2304, 5406720)


def test_planetary_amplitude_bound_errors():
    with pytest.raises(DomainError):
        planetary_amplitude_bound(3, 3)
    with pytest.raises(DomainError):
        planetary_amplitude_bound(4, 2)
    with pytest.raises(DomainError):
        planetary_amplitude_bound(0, 3)


def test_planetary_amplitude_bound_float_rendering():
    b = planetary_amplitude_bound(1, 10)
    # float() of the exact rational is the correctly rounded rendering
    approx = (6 * 1 * math.factorial(10) * 2.0 ** 20
              / (5 * 10 * 11.0 ** 14 * 9 * 46))
    assert math.isclose(float(b), approx, rel_tol=1e-12)
    assert b > 0


def test_planetary_amplitude_bound_shape_in_n():
    # positive wherever defined; direct enumeration shows a strict decrease
    # up to n = 17 and growth beyond (the factorial overtakes the powers)
    vals = [planetary_amplitude_bound(1, n) for n in range(3, 25)]
    assert all(v > 0 for v in vals)
    decreasing = [planetary_amplitude_bound(1, n) for n in range(3, 18)]
    assert all(a > b for a, b in zip(decreasing, decreasing[1:]))
    assert planetary_amplitude_bound(1, 18) > planetary_amplitude_bound(1, 17)


# -- plans --------------------------------------------------------------------

def test_plan_contains_published_triads(square_t30):
    plan = plan_experiment(gc_spec(75), square_t30, d_max=1e-5, d_min=0.1,
                           epsilon=0.1)
    a_keys = {t.key() for t in plan.type_a}
    b_keys = {t.key() for t in plan.type_b}
    assert TYPE_A[75][:3] in a_keys
    assert TYPE_B[75][:3] in b_keys
    for t in list(plan.type_a) + list(plan.type_b):
        for k in t.members():
            assert k in plan.amplitudes
            assert plan.amplitudes[k] > 0
    assert all(t.d_ratio <= 1e-5 for t in plan.type_a)
    assert all(t.d_ratio >= 0.1 for t in plan.type_b)


@pytest.mark.parametrize("basin", [(1.0, 1.0), (1.0, 1.7), (2.2, 2.2),
                                   (1.3, 1.0)])
@pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.3])
def test_plan_amplitudes_match_steepness_amplitude(basin, epsilon):
    """The plan's amplitudes, made in one array pass over its distinct
    modes, are those of ``steepness_amplitude`` mode by mode, bit for bit,
    on unit, square and rectangular basins, keyed in order of first
    appearance over the Type-A then the Type-B rows (k1, k2, k3 a row);
    the steepness warning comes once a plan, not once a mode."""
    spec = rescale_for_basin(gc_spec(47), *basin)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        plan = _plan_columns(spec, SpectralDomain(9), 1e-4, 0.1, epsilon)
    assert len(caught) == (epsilon != 0.1)
    expect = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for t in (plan.type_a, plan.type_b):
            for row in zip(*(x.tolist() for k in t.members() for x in k)):
                for k in map(wv, row[0::2], row[1::2]):
                    expect.setdefault(k, steepness_amplitude(k, epsilon, spec))
    assert len(expect) > 50
    assert list(plan.amplitudes) == list(expect)
    assert list(map(float.hex, plan.amplitudes.values())) == list(
        map(float.hex, expect.values()))


def test_plan_marks_modes_a_member_column_at_a_time(square_t30):
    """The water plan at T=30 (90,169 Type-B rows) peaks under 11.3 MB
    under tracemalloc, level with its Type-B search alone (10.85 MB): its
    modes are marked one member column at a time; stacked copies of every
    member's m and n would peak at 14.46 MB."""
    query = (gc_spec(75), square_t30, 1e-6, 0.1, 0.1)
    _plan_columns(*query)
    tracemalloc.start()
    try:
        plan = _plan_columns(*query)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(plan.type_b) == 90169
    assert peak < 11.3e6, peak


def test_plan_glycerine_triad(square_t30):
    plan = plan_experiment(gc_spec(47), square_t30, d_max=1e-5, d_min=0.1,
                           epsilon=0.1)
    assert TYPE_A[47][:3] in {t.key() for t in plan.type_a}


def test_plan_revalidates_against_standalone_search(square_t30):
    from wavetriads import find_max_discrepancy_triads, find_near_triads
    plan = plan_experiment(gc_spec(16), square_t30, d_max=1e-5, d_min=0.1,
                           epsilon=0.1)
    assert [t.key() for t in plan.type_a] == \
           [t.key() for t in find_near_triads(gc_spec(16), square_t30, 1e-5)]
    assert [t.key() for t in plan.type_b] == \
           [t.key() for t in
            find_max_discrepancy_triads(gc_spec(16), square_t30, 0.1)]


def test_plan_trivial_domain():
    plan = plan_experiment(gc_spec(75), SpectralDomain(1, "square"),
                           d_max=1e-5, d_min=0.1, epsilon=0.1)
    assert plan.type_a == [] and plan.type_b == [] and plan.amplitudes == {}


def test_plan_threshold_contract():
    with pytest.raises(UsageError):
        plan_experiment(gc_spec(75), SpectralDomain(5, "square"),
                        d_max=0.2, d_min=0.1, epsilon=0.1)
    with pytest.raises(UsageError):
        plan_experiment(gc_spec(75), SpectralDomain(5, "square"),
                        d_max=1e-5, d_min=math.inf, epsilon=0.1)


# -- geometry sweeps ----------------------------------------------------------

def test_sweep_flags_resonance_change(square_t30):
    rep = geometry_sweep(gc_spec(16), square_t30, [1.0, 2.0], [1.0, 2.0],
                         d_max=1e-5, omega_max=0.3)
    unit = rep.cell(1.0, 1.0)
    doubled = rep.cell(2.0, 2.0)
    key = TYPE_A[16][:3]
    assert key in {t.key() for t in unit.triads}
    assert key not in {t.key() for t in doubled.triads}
    with pytest.raises(KeyError):
        rep.cell(1.0, 3.0)


def test_sweep_singleton_matches_direct_run(square_t30):
    from wavetriads import class_counts, find_near_triads
    rep = geometry_sweep(gc_spec(27), square_t30, [1.0], [1.0],
                         d_max=1e-5, omega_max=0.3)
    cell = rep.cell(1.0, 1.0)
    direct = find_near_triads(gc_spec(27), square_t30, 1e-5)
    assert [t.key() for t in cell.triads] == [t.key() for t in direct]
    assert cell.counts == class_counts(gc_spec(27), square_t30, 0.3)
    assert cell.resonance_free == (not direct)


def test_sweep_byte_stable():
    domain = SpectralDomain(12, "square")
    args = (gc_spec(16), domain, [1.0, 2.0], [1.0], 1e-4, 0.3)
    a = to_json(sweep_to_record(geometry_sweep(*args)))
    b = to_json(sweep_to_record(geometry_sweep(*args)))
    assert a == b


def test_sweep_neutral_counts_differ_square_vs_quarter_rectangle():
    domain = SpectralDomain(10, "square")
    spec = DispersionSpec("bve_plane", plane_form="squared")
    rep = geometry_sweep(spec, domain, [1.0], [1.0, 4.0],
                         d_max=1e-5, omega_max=0.01, closure="zonal")
    assert rep.cell(1.0, 1.0).counts[2] != rep.cell(1.0, 4.0).counts[2]


@pytest.mark.parametrize("thresholds", [
    {"d_max": math.nan, "omega_max": 0.3},
    {"d_max": 1e-5, "omega_max": math.nan},
])
def test_sweep_rejects_non_finite_thresholds(thresholds):
    with pytest.raises(UsageError):
        geometry_sweep(gc_spec(16), SpectralDomain(5, "square"), [1.0], [1.0],
                       **thresholds)


def test_sweep_rejects_empty_grid(square_t30):
    with pytest.raises(UsageError):
        geometry_sweep(gc_spec(16), square_t30, [], [1.0], 1e-5, 0.3)
