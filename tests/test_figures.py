"""tools/figures.py, CI's report-only figures: every figure runs at a small
size and prints its line, and the spy that reads counts from inside a
search fails loudly and cleans up."""

import importlib.util
import inspect
import os
import re
from pathlib import Path

import pytest

from wavetriads import BasinGeometry, DispersionSpec, SpectralDomain, search
from wavetriads.classify import PLANE_TABLE_CONVENTION, bve_square_spec

_PATH = Path(__file__).resolve().parent.parent / "tools" / "figures.py"
_SPEC = importlib.util.spec_from_file_location("figures", _PATH)
figures = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(figures)

GC75 = DispersionSpec("gravity_capillary", mu_over_nu=75.0)
RECT = DispersionSpec("gravity_capillary", mu_over_nu=75.0,
                      basin=BasinGeometry("rectangle", 1.0, 2.74))
SPHERE = DispersionSpec("rossby_sphere")
T16 = ("gc75 T=16", GC75, SpectralDomain(16), 1e-3)
TIME = r"best of \d+ \d+\.\d{3} ms"
PEAK = r"tracemalloc peak \d+ B"

#: Each figure at a small size, and the lines it must print.
SMALL = {
    "source_lines": ((("search", "classify"), ("report",)), {}, [
        r" *\d+ src/wavetriads/search\.py",
        r" *\d+ src/wavetriads/classify\.py", r" *\d+ total",
        r" *\d+ src/wavetriads/report\.py"]),
    "import_memory": ((), {}, [r"ru_maxrss after import wavetriads: \d+ KiB"]),
    "near": (T16, {"patterns": "all", "closure": "zonal"},
             [rf"near gc75 T=16: \d+ triads, {PEAK}, {TIME}"]),
    "bound_masks": (T16, {"patterns": "all"},
                    [r"near gc75 T=16: masks per bound call \[1\] over "
                     r"[1-9]\d* calls"]),
    "tiles_and_cells": (("1 x 2.74", RECT, *T16[2:]), {"patterns": "all"},
                        [r"near 1 x 2\.74: [1-9]\d* tiles bounded, [1-9]\d* "
                         r"cells prefiltered"]),
    "kernel_times": (T16, {"patterns": "all"},
                     [r"near gc75 T=16: best of 3 _live_tiles \d+\.\d{3} ms, "
                      r"_prefilter \d+\.\d{3} ms"]),
    "largest_block": (T16[:3], {}, [r"largest dense both block, gc75 T=16: "
                                    r"[1-9]\d*"]),
    "box_scan": (("square T=8", bve_square_spec(), SpectralDomain(8), 2), {},
                 [r"box scan square T=8: [1-9]\d* blocks, [1-9]\d* "
                  r"candidates, best of 2 blocks \d+\.\d{3} ms, scan "
                  r"\d+\.\d{3} ms"]),
    "cli_run": (("csv inventory", ["find-triads", "--liquid", "water", "--T",
                                   "6", "--d-min", "0.1", "--format", "csv",
                                   "--output", os.devnull]), {},
                [rf"cli csv inventory: exit 0, {PEAK}, {TIME}"]),
    "render": (("gc75 T=8", GC75, SpectralDomain(8), 0.1), {},
               [rf"render gc75 T=8 \([1-9]\d* rows\) {fmt}: best of 15 "
                r"\d+\.\d{3} us a row" for fmt in ("csv", "json", "table")]),
    "cascade": (("sphere T=14", SPHERE, SpectralDomain(14, "triangular"),
                 ((4, 12), (5, 14), (9, 13)), 3), {},
                [rf"cascade sphere T=14 depth 3: \d+ steps, {TIME}"]),
    "column_peaks": (("gc75 T=8", GC75, SpectralDomain(8), 10.0), {},
                     [rf"near gc75 T=8 d_max 10\.0: \d+ triads, {PEAK}"] + [
                         rf"column search gc75 T=8 d_max {d}: \d+ triads, "
                         rf"{PEAK}" for d in (r"10\.0", "inf")]),
    "bound": (("sphere T=10", SPHERE, SpectralDomain(10, "triangular"), 2), {},
              [r"bound sphere T=10: 1/\d+, witness (\[\d+,\d+\]){3}, 1 _build "
               rf"calls, {TIME}"]),
    "classification": (("square T=8", bve_square_spec(), SpectralDomain(8),
                        0.05, 2), PLANE_TABLE_CONVENTION,
                       [r"classify square T=8: counts \(\d+, \d+, \d+\), \d+ "
                        rf"bridges, \d+ hits, {TIME}"]),
}


def test_every_figure_is_run_here():
    """A figure added to the script must be added to SMALL too."""
    helpers = {"best", "peak", "spy", "main"}
    defined = {name for name, f in vars(figures).items()
               if inspect.isfunction(f) and f.__module__ == "figures"}
    assert defined - helpers == set(SMALL)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_figure_prints_its_lines(capsys, name):
    args, kw, lines = SMALL[name]
    getattr(figures, name)(*args, **kw)
    out = capsys.readouterr().out.splitlines()
    assert len(out) == len(lines), out
    for line, pattern in zip(out, lines):
        assert re.fullmatch(pattern, line), (line, pattern)


def test_near_figure_counts_the_library_search(capsys):
    figures.near(*T16, patterns="all")
    n = len(search.find_near_triads(*T16[1:], patterns="all"))
    assert f": {n} triads," in capsys.readouterr().out


def test_spy_refuses_a_missing_name():
    with pytest.raises(AttributeError):
        with figures.spy(search, "_no_such_kernel", lambda f: f):
            pass
    assert not hasattr(search, "_no_such_kernel")


def test_spy_restores_the_name_after_an_exception():
    original = search._prefilter
    with pytest.raises(RuntimeError):
        with figures.spy(search, "_prefilter", lambda f: None):
            assert search._prefilter is None
            raise RuntimeError
    assert search._prefilter is original


def test_best_and_peak_read_one_call_each():
    calls = []
    assert figures.best(lambda: calls.append(1), 4, iter(range(100)).__next__
                        ) == 1 and len(calls) == 4
    out, size = figures.peak(lambda: bytearray(10 ** 6))
    assert len(out) == 10 ** 6 and size >= 10 ** 6
