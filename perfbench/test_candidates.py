"""Candidate counts against explicit enumeration and against the program.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import candidates as C  # noqa: E402
from wavetriads import (DispersionSpec, SpectralDomain,  # noqa: E402
                        find_exact_triads, find_near_triads)

SMALL_T = range(1, 11)


@pytest.mark.parametrize("T", SMALL_T)
def test_both_matches_enumeration(T):
    assert C.count_both(T) == C.enumerate_both(T)


@pytest.mark.parametrize("T", SMALL_T)
@pytest.mark.parametrize("triangular", [False, True])
@pytest.mark.parametrize("skip", [False, True])
@pytest.mark.parametrize("strict", [False, True])
def test_zonal_matches_enumeration(T, triangular, skip, strict):
    assert (C.count_zonal(T, triangular, skip, strict)
            == C.enumerate_zonal(T, triangular, skip, strict))


@pytest.mark.parametrize("T", SMALL_T)
@pytest.mark.parametrize("triangular", [False, True])
@pytest.mark.parametrize("skip", [False, True])
def test_exact_pairs_match_enumeration(T, triangular, skip):
    assert (C.count_exact_pairs(T, triangular, skip)
            == C.enumerate_exact_pairs(T, triangular, skip))


@pytest.mark.parametrize("T", SMALL_T)
def test_box_matches_enumeration(T):
    assert C.count_box(T) == C.enumerate_box(T)


# With an infinite threshold a scan keeps every candidate it examines, so
# the program's output length is an independent check of the rules above.
GC = DispersionSpec("gravity_capillary", mu_over_nu=75.0)
SPHERE = DispersionSpec("rossby_sphere")


@pytest.mark.parametrize("T", [2, 5, 9])
@pytest.mark.parametrize("closure,shape", [("both", "square"),
                                           ("zonal", "square"),
                                           ("zonal", "triangular"),
                                           ("box", "square")])
@pytest.mark.parametrize("skip", [False, True])
def test_float_scan_keeps_every_candidate(T, closure, shape, skip):
    got = find_near_triads(GC, SpectralDomain(T, shape), math.inf,
                           closure=closure, skip_equal_n_pairs=skip)
    assert len(got) == C.search_candidates("near", False, T, shape, closure,
                                           skip)


@pytest.mark.parametrize("T", [2, 5, 9])
@pytest.mark.parametrize("skip", [False, True])
def test_rational_scan_keeps_every_candidate(T, skip):
    got = find_near_triads(SPHERE, SpectralDomain(T, "triangular"), math.inf,
                           skip_equal_n_pairs=skip)
    assert len(got) == C.search_candidates("near", True, T, "triangular",
                                           "zonal", skip)


def test_exact_pair_count_bounds_the_exact_search():
    T = 14
    n_pairs = C.search_candidates("exact", True, T, "triangular", "zonal")
    assert 0 < len(find_exact_triads(SPHERE, SpectralDomain(T, "triangular"))) <= n_pairs
