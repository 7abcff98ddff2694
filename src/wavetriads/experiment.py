"""Experiment-facing quantities: driving frequencies, steepness-based
amplitude recommendations, the planetary amplitude bound, and basin
geometry sweeps."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

from .classify import class_counts
from .dispersion import (
    DispersionSpec,
    SpectralDomain,
    WaveVector,
    _GRID_MATH,
    _is_positive_int,
    _rescaled_norm_sq,
    check_wavevector,
    rescale_for_basin,
)
from .errors import DomainError, UsageError
from .search import _sorted_search, find_near_triads

#: Steepness values above this leave the weakly nonlinear regime.
WEAKLY_NONLINEAR_EPS = 0.2


def _check_steepness(epsilon: float) -> None:
    """Reject a negative (-0.0 too) or non-finite steepness; a NaN passes
    every comparison and would reach the amplitudes and the JSON output."""
    if not (0 <= epsilon < math.inf and math.copysign(1, epsilon) > 0):
        raise DomainError(
            f"steepness must be non-negative and finite, got {epsilon!r}")


def _warn_steepness(epsilon: float) -> None:
    """Warn outside 0 < epsilon <= WEAKLY_NONLINEAR_EPS."""
    if epsilon == 0:
        warnings.warn("steepness 0 gives a degenerate zero amplitude")
    elif epsilon > WEAKLY_NONLINEAR_EPS:
        warnings.warn(
            f"steepness {epsilon} exceeds the weakly nonlinear range "
            f"(<= {WEAKLY_NONLINEAR_EPS})")


def steepness_amplitude(k: WaveVector, epsilon: float,
                        spec: DispersionSpec | None = None) -> float:
    """Wave amplitude a = epsilon / |k| (cm) for a target steepness.

    |k| is the basin-rescaled scalar wavenumber when a spec is given, the
    plain Euclidean norm otherwise.  Warns outside 0 < epsilon <= 0.2.
    """
    k = check_wavevector(WaveVector(*k))
    _check_steepness(epsilon)
    _warn_steepness(epsilon)
    if spec is not None:
        norm = math.sqrt(_rescaled_norm_sq(spec, k.m, k.n, math))
    else:
        norm = math.sqrt(k.m * k.m + k.n * k.n)
    return epsilon / norm


def planetary_amplitude_bound(m: int, n: int) -> Fraction:
    """Upper bound on the amplitude of planetary wave (m, n).

    Exact rational via big-integer factorials and powers:
    6 m n! 2^(2n+1-m) / [5n (n+1)^(m+n+3) (n-m) (5n-m-3)].
    Defined for integers n > m >= 1, where 5n - m - 3 >= 4m + 2 > 0;
    n <= m raises.
    """
    if not (_is_positive_int(m) and _is_positive_int(n)):
        raise DomainError("wavenumbers must be integers >= 1")
    m, n = int(m), int(n)
    if n == m:
        raise DomainError("amplitude bound is singular at n = m")
    if n < m:
        raise DomainError("amplitude bound requires n > m")
    num = 6 * m * math.factorial(n) * 2 ** (2 * n + 1 - m)
    den = 5 * n * (n + 1) ** (m + n + 3) * (n - m) * (5 * n - m - 3)
    return Fraction(num, den)


@dataclass
class ExperimentPlan:
    """Frequencies to drive and amplitudes to set for one liquid/basin.

    ``type_a`` are near-resonant triads (d_ratio <= d_max, observable
    periodic energy exchange); ``type_b`` have d_ratio >= d_min (no
    periodic exchange at comparable amplitudes).  Amplitudes are in cm
    under c.g.s. units.
    """

    spec: DispersionSpec
    domain: SpectralDomain
    d_max: float
    d_min: float
    epsilon: float
    type_a: list
    type_b: list
    amplitudes: dict
    notes: str = ""


def plan_experiment(spec: DispersionSpec, domain: SpectralDomain,
                    d_max: float, d_min: float,
                    epsilon: float) -> ExperimentPlan:
    """Assemble driving frequencies and amplitudes for a laboratory run.

    d_max is the Type-A ceiling and d_min the Type-B floor; the plan
    records that d_max should stay above the achievable generator
    precision.  Empty triad lists are reported, not an error.
    """
    plan = _plan_columns(spec, domain, d_max, d_min, epsilon)
    plan.type_a, plan.type_b = plan.type_a.triads(), plan.type_b.triads()
    return plan


def _plan_columns(spec, domain, d_max, d_min, epsilon) -> ExperimentPlan:
    """The plan of :func:`plan_experiment` with its triads as columns
    (:class:`.triad.TriadColumns`), which the CLI renders.  The amplitudes
    follow the members in row order, k1, k2, k3 in each row: those of
    :func:`steepness_amplitude`, bit for bit, in one array pass over the
    distinct modes, each first found by ``np.minimum.at`` on its key
    m R + n on the table, one member column at a time, at the place
    3 row + position after the places of the set before, and put in place
    order by the places (np.unique would import numpy.ma; a sort, its
    kernels)."""
    if not (0 < d_max < d_min):
        raise UsageError("thresholds must satisfy 0 < d_max < d_min")
    _check_steepness(epsilon)
    type_a = _sorted_search(spec, domain, d_max=d_max)
    type_b = _sorted_search(spec, domain, d_min=d_min)
    R, size = type_a.table.shape[1], 3 * (len(type_a) + len(type_b))
    first, offset = np.full(type_a.table.size, size), 0
    for t in (type_a, type_b):
        for p, (m, n) in enumerate(t.members()):
            np.minimum.at(first, m * R + n,
                          np.arange(offset + p, offset + 3 * len(t), 3))
        offset += 3 * len(t)
    key = np.flatnonzero(first < size)
    amplitudes = {}
    if key.size:
        place = np.full(size, -1)
        place[first[key]] = key
        m, n = np.divmod(place[place >= 0], R)
        _warn_steepness(epsilon)
        a = epsilon / np.sqrt(_rescaled_norm_sq(spec, m, n, _GRID_MATH))
        amplitudes = dict(zip(map(WaveVector, m.tolist(), n.tolist()),
                              a.tolist()))
    notes = (f"amplitudes in cm (c.g.s.), steepness eps={epsilon}; "
             f"driving-frequency precision must be finer than d_max={d_max}")
    return ExperimentPlan(spec, domain, d_max, d_min, epsilon,
                          type_a, type_b, amplitudes, notes)


@dataclass
class SweepCell:
    lx: float
    ly: float
    triads: list
    triad_count: int
    counts: tuple  # (active, passive, neutral)
    resonance_free: bool


@dataclass
class GeometrySweepReport:
    spec: DispersionSpec
    domain: SpectralDomain
    d_max: float
    omega_max: float
    cells: list = field(default_factory=list)

    def cell(self, lx: float, ly: float) -> SweepCell:
        for c in self.cells:
            if c.lx == lx and c.ly == ly:
                return c
        raise KeyError((lx, ly))


def geometry_sweep(base_spec: DispersionSpec, domain: SpectralDomain,
                   lx_values, ly_values, d_max: float, omega_max: float,
                   **class_convention) -> GeometrySweepReport:
    """Rescale the spec over an (Lx, Ly) grid; report triad inventories and
    class counts per cell.  A cell with no near triad at d_max is flagged
    resonance-free."""
    lxs = list(lx_values)
    lys = list(ly_values)
    if not lxs or not lys:
        raise UsageError("geometry grids must be nonempty")
    report = GeometrySweepReport(base_spec, domain, float(d_max),
                                 float(omega_max))
    for lx, ly in product(lxs, lys):
        spec = rescale_for_basin(base_spec, lx, ly)
        triads = find_near_triads(spec, domain, d_max)
        counts = class_counts(spec, domain, omega_max, **class_convention)
        report.cells.append(SweepCell(lx, ly, triads, len(triads), counts,
                                      resonance_free=not triads))
    return report
