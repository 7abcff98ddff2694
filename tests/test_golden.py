"""Byte-for-byte comparison of CLI output with committed golden files.

Each case runs ``wavetriads.cli.main`` on a small domain (T <= 10, or 40
for the multi-tile near searches) and compares the bytes it writes, to
``--output`` and to stdout, with ``tests/golden/<case>``.  The files pin
every subcommand in each format it supports, so a refactor of the search,
report or CLI layers that changes any output byte fails here.

Regenerate the files only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from wavetriads.cli import main

GOLDEN = Path(__file__).parent / "golden"

ALL = ("json", "csv", "table")
NO_CSV = ("json", "table")

# (case name, arguments without --format, formats)
_COMMANDS = [
    ("find-triads-near",
     ["find-triads", "--liquid", "water", "--T", "10", "--d-max", "1e-2"],
     ALL),
    ("find-triads-near-zonal",
     ["find-triads", "--liquid", "water", "--T", "8", "--d-max", "1e-2",
      "--closure", "zonal"], ("csv",)),
    ("find-triads-near-sphere",
     ["find-triads", "--dispersion", "rossby-sphere", "--T", "8",
      "--d-max", "0.05", "--patterns", "all"], ("csv",)),
    ("find-triads-maxd",
     ["find-triads", "--liquid", "benzaldehyde", "--T", "8", "--d-min", "0.5"],
     ALL),
    ("find-triads-maxd-box",
     ["find-triads", "--dispersion", "gravity-capillary", "--mu-nu", "16",
      "--T", "5", "--d-min", "0.5", "--closure", "box", "--patterns", "all"],
     ("csv",)),
    ("find-triads-exact",
     ["find-triads", "--dispersion", "rossby-sphere", "--T", "10", "--exact"],
     ALL),
    ("classify-sphere",
     ["classify", "--dispersion", "rossby-sphere", "--T", "8",
      "--omega-max", "0.03"], ALL),
    ("classify-plane-box",
     ["classify", "--dispersion", "bve-plane", "--plane-form", "squared",
      "--T", "8", "--omega-max", "0.013", "--patterns", "all",
      "--closure", "box"], ALL),
    # Water at T=8 has no resonant seed, so these two pin the float
    # approximate-resonance scans; the bve-plane cases below have seeds
    # and pin the zonal and component-wise bridges.
    ("classify-water-zonal",
     ["classify", "--liquid", "water", "--T", "8", "--omega-max", "1",
      "--closure", "zonal"], ("json",)),
    ("classify-water-both",
     ["classify", "--liquid", "water", "--T", "8", "--omega-max", "3",
      "--closure", "both"], ALL),
    ("classify-plane-zonal",
     ["classify", "--dispersion", "bve-plane", "--plane-form", "squared",
      "--T", "8", "--omega-max", "0.01", "--closure", "zonal"], ("json",)),
    ("classify-plane-zonal-triangular",
     ["classify", "--dispersion", "bve-plane", "--plane-form", "squared",
      "--T", "8", "--shape", "triangular", "--omega-max", "0.03",
      "--closure", "zonal"], ("json",)),
    ("classify-plane-both",
     ["classify", "--dispersion", "bve-plane", "--plane-form", "squared",
      "--T", "8", "--omega-max", "0.1", "--patterns", "all",
      "--closure", "both"], ("json",)),
    ("find-triads-near-box",
     ["find-triads", "--liquid", "water", "--T", "8", "--d-max", "1e-2",
      "--closure", "box", "--patterns", "all"], ("csv",)),
    ("bound-sphere",
     ["bound", "--dispersion", "rossby-sphere", "--T", "8"], NO_CSV),
    ("bound-water",
     ["bound", "--liquid", "water", "--T", "8"], NO_CSV),
    ("plan",
     ["plan", "--liquid", "glycerine", "--T", "8", "--d-max", "1e-3",
      "--d-min", "0.8"], NO_CSV),
    ("sweep",
     ["sweep", "--liquid", "benzaldehyde", "--T", "8", "--lx-values", "1,2",
      "--ly-values", "1,2.5", "--d-max", "0.01", "--omega-max", "20"],
     NO_CSV),
    ("eval-water",
     ["eval", "--liquid", "water", "--m", "3", "--n", "4"], NO_CSV),
    ("eval-sphere",
     ["eval", "--dispersion", "rossby-sphere", "--m", "1", "--n", "2"],
     NO_CSV),
    # The exact path off its default: a square domain, the max-discrepancy
    # threshold, the bound on a square domain and the classifier's
    # selection rules; and float zonal closure under every sign pattern.
    ("find-triads-near-sphere-square",
     ["find-triads", "--dispersion", "rossby-sphere", "--T", "8",
      "--shape", "square", "--d-max", "0.02", "--patterns", "all"],
     ("csv",)),
    ("find-triads-maxd-sphere",
     ["find-triads", "--dispersion", "rossby-sphere", "--T", "8",
      "--d-min", "12"], ("csv",)),
    ("bound-sphere-square",
     ["bound", "--dispersion", "rossby-sphere", "--T", "8",
      "--shape", "square"], ("json",)),
    ("classify-sphere-parity",
     ["classify", "--dispersion", "rossby-sphere", "--T", "8",
      "--omega-max", "0.03", "--n-selection", "parity",
      "--bridge-mode", "per_triad"], ("json",)),
    ("find-triads-near-zonal-all",
     ["find-triads", "--liquid", "water", "--T", "8", "--d-max", "1e-2",
      "--closure", "zonal", "--patterns", "all"], ("csv",)),
    # The pruned near search over several 8 x 8 tiles per axis: every
    # sign pattern on the square, and the sum pattern on a rectangle.
    ("find-triads-near-tiles-all",
     ["find-triads", "--liquid", "water", "--T", "40", "--d-max", "1e-4",
      "--patterns", "all"], ("csv",)),
    ("find-triads-near-tiles-rectangle",
     ["find-triads", "--liquid", "water", "--lx", "1.3", "--ly", "0.7",
      "--T", "40", "--d-max", "1e-3"], ("csv",)),
]

CASES = {f"{name}.{fmt}": [*argv, "--format", fmt]
         for name, argv, formats in _COMMANDS for fmt in formats}
CASES["find-triads-maxd-no-header.csv"] = [
    "find-triads", "--liquid", "benzaldehyde", "--T", "8", "--d-min", "0.5",
    "--format", "csv", "--no-header"]


def render(argv, path: Path) -> bytes:
    code = main([*argv, "--output", str(path)])
    assert code == 0, argv
    return path.read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path, capsys):
    golden = (GOLDEN / case).read_bytes()
    assert render(CASES[case], tmp_path / case) == golden
    assert main(CASES[case]) == 0
    assert capsys.readouterr().out.encode() == golden


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case, argv in sorted(CASES.items()):
            (GOLDEN / case).write_bytes(render(argv, Path(tmp) / case))
            print(case)
