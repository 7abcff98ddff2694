"""Report-only figures: sizes, peaks, counts and times of the paths that
the benchmark's workloads do not cover, printed with no threshold so that
each CI log records them from change to change.

Run from the repository root as ``PYTHONPATH=src python tools/figures.py``.
Each figure is one function that takes its query as arguments and prints
one line a result; :func:`main` holds CI's sizes.  Times are best of n
(:func:`best`), peaks are tracemalloc peaks after a warm-up call
(:func:`peak`), and counts read from inside a search replace a private
function for one call (:func:`spy`), so a renamed private name fails here
and in ``tests/test_figures.py``.  The figures share one process, whose
allocator keeps what an earlier figure freed, so compare a time only with
the same line of an earlier run of this script.
"""

import collections
import contextlib
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import wavetriads
from wavetriads import (BasinGeometry, DispersionSpec, SpectralDomain,
                        classify, classify_modes, cli,
                        discrepancy_lower_bound, find_exact_triads,
                        find_near_triads, report, search)
from wavetriads.classify import cascade_path

SRC = Path(wavetriads.__file__).parent


def best(run, n, clock=time.perf_counter):
    """The least time of n calls of run(), read on ``clock``: wall time,
    or a spy's running total of the time spent in one function."""
    times = []
    for _ in range(n):
        t = clock()
        run()
        times.append(clock() - t)
    return min(times)


def peak(run):
    """run()'s result and the tracemalloc peak (B) of one call, after a
    warm-up call."""
    run()
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@contextlib.contextmanager
def spy(module, name, wrap):
    """``module.name`` replaced by ``wrap(module.name)`` inside the block
    and restored however it ends.  A name the module lacks raises
    AttributeError, so a rename cannot leave a spy that counts nothing."""
    original = getattr(module, name)
    setattr(module, name, wrap(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def source_lines(*groups):
    """``wc -l`` of each group of modules, with a total for a group of
    several: the line-gate set, which no change should grow net."""
    for group in groups:
        counts = {f"src/wavetriads/{m}.py":
                  (SRC / f"{m}.py").read_text().count("\n") for m in group}
        if len(counts) > 1:
            counts["total"] = sum(counts.values())
        for path, n in counts.items():
            print(f"{n:5d} {path}")


def import_memory():
    """``ru_maxrss`` of a fresh interpreter that imports, and so compiles,
    the package from an empty bytecode cache.  Compile memory sets
    classify-exact's ``peak_rss_mb``."""
    with tempfile.TemporaryDirectory() as cache:
        rss = subprocess.run(
            [sys.executable, "-c", "import resource, wavetriads; print("
             "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"],
            env={**os.environ, "PYTHONPYCACHEPREFIX": cache,
                 "PYTHONPATH": str(SRC.parent)},
            check=True, capture_output=True, text=True).stdout.strip()
    print("ru_maxrss after import wavetriads:", rss, "KiB")


def near(label, spec, domain, d_max, **kw):
    """Triads, tracemalloc peak and best-of-3 time of a near search."""
    run = lambda: find_near_triads(spec, domain, d_max, **kw)
    triads, size = peak(run)
    print(f"near {label}: {len(triads)} triads, tracemalloc peak {size} B, "
          f"best of 3 {best(run, 3) * 1e3:.3f} ms")


def bound_masks(label, spec, domain, d_max, **kw):
    """Masks per bound call of the pruned near search over its calls.  One
    mask a call: the grid is certified.  On the unit square the grid
    equals its transpose, so only the tiles that can hold m3 <= n3 are
    bounded (about 26 calls at T=92, all patterns, not 42)."""
    masks = []
    with spy(search, "_live_tiles", lambda f: lambda *a: masks.append(
            f(*a)) or masks[-1]):
        find_near_triads(spec, domain, d_max, **kw)
    print(f"near {label}: masks per bound call "
          f"{sorted({len(m) for m in masks})} over {len(masks)} calls")


def tiles_and_cells(label, spec, domain, d_max, **kw):
    """Tiles bounded and cells prefiltered by the pruned near search, read
    from the tiles each bound call is given and the live tile keys each
    pattern's prefilter takes (one key a tile)."""
    tiles, cells = [], []
    with spy(search, "_live_tiles", lambda f: lambda *a: tiles.append(
            a[3][0].size * a[4][0].size) or f(*a)), \
         spy(search, "_prefilter", lambda f: lambda *a: cells.append(
             a[4].size * search._TILE ** 2) or f(*a)):
        find_near_triads(spec, domain, d_max, **kw)
    print(f"near {label}: {sum(tiles)} tiles bounded, {sum(cells)} cells "
          "prefiltered")


def kernel_times(label, spec, domain, d_max, **kw):
    """Best-of-3 time spent in the bound (``_live_tiles``) and in the
    prefilter (``_prefilter``) of the pruned near search."""
    spent = {"_live_tiles": 0.0, "_prefilter": 0.0}

    def timed(f):
        def run(*args):
            t = time.perf_counter()
            try:
                return f(*args)
            finally:
                spent[f.__name__] += time.perf_counter() - t
        return run

    with spy(search, "_live_tiles", timed), spy(search, "_prefilter", timed):
        times = {name: best(lambda: find_near_triads(spec, domain, d_max,
                                                     **kw),
                            3, lambda: spent[name]) for name in spent}
    print(f"near {label}: best of 3 " + ", ".join(
        f"{name} {t * 1e3:.3f} ms" for name, t in times.items()))


def largest_block(label, spec, domain):
    """Candidates in the largest block of the dense ``both`` scan: at most
    ``search._BLOCK`` (4,096)."""
    blocks = search.CLOSURES["both"].blocks(
        search._table(spec, domain.truncation), domain, True,
        ("sum", math.inf, 0, None))
    print(f"largest dense both block, {label}:",
          max(b[0].size for b in blocks))


def dense_scan(label, spec, domain, closure, n):
    """Blocks, candidates and largest block of the dense scan of a template
    closure (``box``, or ``both`` with no ceiling) under its bound's sign
    patterns, and the best-of-n times of its blocks alone and of the scan
    that steps them (``search._scan``), each block let go before the
    next."""
    X, rule = search._table(spec, domain.truncation), search.CLOSURES[closure]
    test = (rule.bound_patterns, math.inf, 0, None)
    sizes = [b[0].size for b in rule.blocks(X, domain, True, test)]
    drain = lambda blocks: best(lambda: collections.deque(blocks(), 0), n)
    t_blocks = drain(lambda: rule.blocks(X, domain, True, test))
    t_scan = drain(lambda: search._scan(X, domain, rule, True, test))
    print(f"dense {closure} scan {label}: {len(sizes)} blocks, {sum(sizes)} "
          f"candidates, largest {max(sizes)}, best of {n} blocks "
          f"{t_blocks * 1e3:.3f} ms, scan {t_scan * 1e3:.3f} ms")


def cli_run(label, argv):
    """Exit status, tracemalloc peak and best-of-3 time of a CLI run; its
    output streams to ``--output``, chunk by chunk."""
    code, size = peak(lambda: cli.main(argv))
    print(f"cli {label}: exit {code}, tracemalloc peak {size} B, best of 3 "
          f"{best(lambda: cli.main(argv), 3) * 1e3:.3f} ms")


def render(label, spec, domain, d_min):
    """Best-of-15 time a row of the CSV, JSON and table writers over one
    max-discrepancy inventory: the render alone, the search done once."""
    cols = search._sorted_search(spec, domain, d_min=d_min)
    for fmt, write in (("csv", report.write_triads_csv),
                       ("json", report.write_json),
                       ("table", report.write_triads_table)):
        t = best(lambda: write(lambda text: None, cols), 15)
        print(f"render {label} ({len(cols)} rows) {fmt}: best of 15 "
              f"{t / len(cols) * 1e6:.3f} us a row")


def cascade(label, spec, domain, key, depth):
    """Steps and best-of-5 time of the cascade from the exact triad
    ``key``; each level builds its next triad once."""
    seed = next(t for t in find_exact_triads(spec, domain) if t.key() == key)
    steps = len(cascade_path(spec, domain, seed, depth))
    t = best(lambda: cascade_path(spec, domain, seed, depth), 5)
    print(f"cascade {label} depth {depth}: {steps} steps, best of 5 "
          f"{t * 1e3:.3f} ms")


def column_peaks(label, spec, domain, d_max):
    """Tracemalloc peaks of a near search whose d_max keeps every triad:
    the public search, and the column search at that d_max and at inf,
    which should peak alike."""
    triads, size = peak(lambda: find_near_triads(spec, domain, d_max))
    print(f"near {label} d_max {d_max}: {len(triads)} triads, tracemalloc "
          f"peak {size} B")
    for d in (d_max, math.inf):
        cols, size = peak(lambda: search._sorted_search(spec, domain,
                                                        d_max=d))
        print(f"column search {label} d_max {d}: {len(cols)} triads, "
              f"tracemalloc peak {size} B")


def bound(label, spec, domain, n):
    """The finite-domain discrepancy bound, its witness, its ``_build``
    calls (one: only the ties are built) and its best-of-n time."""
    builds = []
    with spy(search, "_build", lambda f: lambda *a: builds.append(1) or
             f(*a)):
        least = discrepancy_lower_bound(spec, domain).finite_min
    t = best(lambda: discrepancy_lower_bound(spec, domain), n)
    print(f"bound {label}: {least.value}, witness {least.witness}, "
          f"{len(builds)} _build calls, best of {n} {t * 1e3:.3f} ms")


def classification(label, spec, domain, omega_max, n, **kw):
    """Class counts, bridges, approximate-resonance hits (those the
    passive pass reads) and best-of-n time of a classification."""
    hits = []
    with spy(classify, "_passive_minima", lambda f: lambda d, s, h: (
            hits.append(h[5].size) or f(d, s, h))):
        part = classify_modes(spec, domain, omega_max, **kw)
    t = best(lambda: classify_modes(spec, domain, omega_max, **kw), n)
    print(f"classify {label}: counts {part.counts()}, {len(part.bridges)} "
          f"bridges, {hits[0]} hits, best of {n} {t * 1e3:.3f} ms")


def main():
    """CI's figures, in CI's sizes."""
    gc75 = DispersionSpec("gravity_capillary", mu_over_nu=75.0)
    sphere = DispersionSpec("rossby_sphere")
    source_lines(("search", "classify", "triad", "sphere"), ("report",),
                 ("dispersion",))
    import_memory()
    # The float zonal near search, which no workload covers, runs first:
    # once the process has freed a large array, glibc keeps freed memory
    # and the search reads 2-3x faster than in a fresh process.
    for T in (30, 40):
        near(f"gc75 T={T} zonal 1e-5", gc75, SpectralDomain(T), 1e-5,
             closure="zonal")
    # The pruned near search on water: the near-scan workload's path.
    T92 = ("gc75 T=92 all 1e-5", gc75, SpectralDomain(92), 1e-5)
    near(*T92, patterns="all")
    near("gc75 T=88 sum 1e-5", gc75, SpectralDomain(88), 1e-5)
    bound_masks(*T92, patterns="all")
    rect = DispersionSpec("gravity_capillary", mu_over_nu=75.0,
                          basin=BasinGeometry("rectangle", 1.0, 2.74))
    tiles_and_cells(T92[0] + ", unit square", *T92[1:], patterns="all")
    tiles_and_cells(T92[0] + ", 1 x 2.74", rect, *T92[2:], patterns="all")
    kernel_times(*T92, patterns="all")
    largest_block("gc75 T=128", gc75, SpectralDomain(128))
    # Water's T=30 Type-B inventory (90,169 rows) and plan, every format
    # streamed; then the render alone, a row of the seed-29 benzol
    # inventory.
    for command, fmt in (("find-triads", "csv"), ("find-triads", "json"),
                         ("find-triads", "table"), ("plan", "table"),
                         ("plan", "json")):
        name = "inventory" if command == "find-triads" else command
        cli_run(f"{fmt} {name} gc75 T=30 d_min 0.1",
                [command, "--liquid", "water", "--T", "30", "--d-min", "0.1",
                 "--format", fmt, "--output", os.devnull])
    benzol = DispersionSpec("gravity_capillary", mu_over_nu=27.0,
                            basin=BasinGeometry("rectangle", 1.67, 1.67))
    render("benzol T=14 1.67 x 1.67", benzol, SpectralDomain(14), 0.0424369)
    # The sphere's exact path, which no workload renders, cascades or
    # classifies at these sizes.
    cli_run("csv inventory sphere T=30 d_max 1e-2",
            ["find-triads", "--dispersion", "rossby-sphere", "--T", "30",
             "--d-max", "1e-2", "--format", "csv", "--output", os.devnull])
    cascade("sphere T=20 (4,12)+(5,14)->(9,13)", sphere,
            SpectralDomain(20, "triangular"),
            ((4, 12), (5, 14), (9, 13)), 6)
    near("sphere T=30 triangular d_max 1e-2", sphere,
         SpectralDomain(30, "triangular"), 1e-2)
    column_peaks("gc75 T=40", gc75, SpectralDomain(40), 10.0)
    bound("sphere T=40 triangular", sphere, SpectralDomain(40, "triangular"),
          5)
    classification("sphere T=30 square all, n1 = n2 kept", sphere,
                   SpectralDomain(30), 0.03, 3, patterns="all",
                   skip_equal_n_pairs=False)
    # The dense scans of the two template closures: box, which
    # classify-exact runs, and both with no ceiling, which
    # inventory-render runs.
    for label, spec, closure in (("bve square", classify.bve_square_spec(),
                                  "box"), ("gc75", gc75, "both")):
        for T in (15, 40):
            dense_scan(f"{label} T={T}", spec, SpectralDomain(T), closure, 20)
    # classify-exact's two largest kinds: the box and zonal kernels and
    # the walk.
    classification("square T=15 box, table convention",
                   classify.bve_square_spec(), SpectralDomain(15),
                   classify.SQUARE_TABLE_OMEGA_MAX, 5,
                   **classify.PLANE_TABLE_CONVENTION)
    classification("sphere T=12, table convention", sphere,
                   SpectralDomain(12, "triangular"),
                   classify.SPHERE_TABLE_OMEGA_MAX, 5,
                   **classify.SPHERE_TABLE_CONVENTION)
    # The float `both` classifications that `sweep` runs and the dense
    # float bound, which no workload covers.
    classification("gc75 T=64 both sum, omega_max 1.0", gc75,
                   SpectralDomain(64), 1.0, 3)
    classification("gc75 T=92 both all, omega_max 0.05", gc75,
                   SpectralDomain(92), 0.05, 3, patterns="all")
    bound("gc75 T=128", gc75, SpectralDomain(128), 2)


if __name__ == "__main__":
    main()
