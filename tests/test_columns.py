"""Columnar search results against the triad rebuild they replaced.

The searches keep what they find as columns (``triad.TriadColumns``)
until a ``Triad`` is asked for, and the CLI renders the columns.  The
oracle here is the rebuild the package had before: per block, a list of
``Triad`` objects in scan order, then ``list.sort`` on d_ratio.  The
public searches must return those lists field by field, and the CLI's
JSON, CSV and table output must equal the record-path rendering of them.
"""

import json
import math

import numpy as np
from hypothesis import example, given, strategies as st

from wavetriads import (
    BasinGeometry,
    DispersionSpec,
    SpectralDomain,
    WaveVector,
    cli,
    find_max_discrepancy_triads,
    find_near_triads,
    search,
)
from wavetriads.report import write_triads_table
from wavetriads.triad import RESIDUALS, SIGN_PATTERNS, Triad, _omegas
from test_report import csv_oracle, joined, json_oracle

FLOAT_SPECS = [
    DispersionSpec("capillary"),
    DispersionSpec("gravity_capillary", mu_over_nu=75.0),
    DispersionSpec("gravity_capillary", mu_over_nu=27.0,
                   basin=BasinGeometry("rectangle", 1.0, 1.7)),
    DispersionSpec("gravity_tanh", alpha=0.5),
    DispersionSpec("bve_plane"),
    DispersionSpec("bve_plane", plane_form="squared",
                   basin=BasinGeometry("rectangle", 1.0, 4.0)),
]
#: A grid whose larger modes overflow to inf: its max-discrepancy triads
#: carry infinite frequencies, residuals and d_ratios.
OVERFLOWING = DispersionSpec("gravity_capillary", mu_over_nu=1e305)
CLOSURE_SHAPES = [("both", "square"), ("zonal", "square"),
                  ("zonal", "triangular"), ("box", "square")]


def build_oracle(X, patterns, cand, keep) -> list:
    """The triads of the block candidates ``cand`` that ``keep`` selects,
    in scan order, as the rebuild before columns made them: each distinct
    mode's WaveVector and frequency read once, the first pattern of least
    |Omega|, and d = |Omega| / min |w| with Python's ``min``."""
    if not np.count_nonzero(keep):
        return []
    m1, n1, m2, n2, n3 = (c[keep] for c in cand)
    R = int(max(n1.max(), n2.max(), n3.max())) + 1
    key = np.concatenate((m1, m2, m1 + m2)) * R + np.concatenate((n1, n2, n3))
    seen = np.zeros(int(key.max()) + 1, dtype=bool)
    seen[key] = True
    modes = np.flatnonzero(seen)
    ks = list(map(WaveVector, *(c.tolist() for c in np.divmod(modes, R))))
    at = np.searchsorted(modes, key)
    m, n = np.divmod(modes, R)
    w1, w2, w3 = _omegas(X, m, X[m, n])[at].reshape(3, -1)
    k1, k2, k3 = np.fromiter(ks, object, len(ks))[at].reshape(3, -1)
    signs = SIGN_PATTERNS if patterns == "all" else SIGN_PATTERNS[:1]
    om, *others = (r(w1, w2, w3) for r in RESIDUALS[:len(signs)])
    best = np.zeros(len(om), dtype=int)
    for i, o in enumerate(others, 1):
        less = abs(o) < abs(om)
        om, best = np.where(less, o, om), np.where(less, i, best)
    low = np.abs(w1.astype(float))
    for w in (w2, w3):
        w = np.abs(w.astype(float))
        low = np.where(w < low, w, low)
    d = np.abs(om.astype(float)) / low
    return [Triad(*t) for t in zip(
        k1.tolist(), k2.tolist(), k3.tolist(),
        zip(w1.tolist(), w2.tolist(), w3.tolist()), om.tolist(), d.tolist(),
        [signs[i] for i in best.tolist()])]


def search_oracle(spec, domain, closure, patterns, d_max=None, d_min=None):
    """The near (``d_max``) or max-discrepancy (``d_min``) search on the
    scan's own blocks under the search's test, rebuilt by
    :func:`build_oracle` and sorted by ``list.sort`` on d_ratio,
    descending for max-discrepancy."""
    X = search._table(spec, domain.truncation)
    rule = search._dispatch(spec, domain, closure, patterns)
    blocks = search._scan(X, domain, rule, True,
                          (patterns, math.inf, 0, d_max))
    triads = [t for cand, a, amin in blocks for t in build_oracle(
        X, patterns, cand, search._select(a, amin, d_max, d_min))]
    triads.sort(key=lambda t: t.d_ratio, reverse=d_min is not None)
    return triads


def fields(triads):
    """Each triad's members (ints in WaveVectors), frequencies,
    discrepancy and d_ratio by ``float.hex``, and signs, in order."""
    out = []
    for t in triads:
        assert all(type(k) is WaveVector and type(k.m) is type(k.n) is int
                   for k in t.members())
        out.append((t.members(), tuple(map(float.hex, t.omegas)),
                    float.hex(t.discrepancy), float.hex(t.d_ratio), t.signs))
    return out


def finite(t: Triad) -> bool:
    return all(map(math.isfinite, (*t.omegas, t.discrepancy, t.d_ratio)))


@given(spec=st.sampled_from(FLOAT_SPECS),
       closure_shape=st.sampled_from(CLOSURE_SHAPES),
       patterns=st.sampled_from(["sum", "all"]), T=st.integers(2, 12),
       mode=st.sampled_from(["near", "maxd"]), q=st.floats(0, 1))
@example(spec=OVERFLOWING, closure_shape=("both", "square"), patterns="all",
         T=9, mode="maxd", q=0.0)
@example(spec=OVERFLOWING, closure_shape=("zonal", "square"), patterns="sum",
         T=12, mode="near", q=0.5)
@example(spec=DispersionSpec("capillary"), closure_shape=("both", "square"),
         patterns="sum", T=12, mode="maxd", q=0.3)
@example(spec=DispersionSpec("bve_plane"), closure_shape=("zonal", "square"),
         patterns="all", T=10, mode="near", q=0.0)
def test_columns_equal_the_triad_oracle(tmp_path_factory, spec,
                                        closure_shape, patterns, T, mode, q):
    """The public searches return the oracle's lists, and the CLI renders
    them as json.dumps / csv.writer of their records and as the table
    lines of the Triads.  The unit-square capillary has many equal d
    (stable order), the plane's exact resonances are numerically exact rows
    (their JSON label), and the overflowing grid's infinite rows take the
    record path."""
    closure, shape = closure_shape
    domain = SpectralDomain(T, shape)
    with np.errstate(invalid="ignore", over="ignore"):
        every = search_oracle(spec, domain, closure, patterns, d_max=math.inf)
        ds = sorted({t.d_ratio for t in every
                     if 0 < t.d_ratio < math.inf}) or [1.0]
        d = ds[int(q * (len(ds) - 1))]
        if mode == "near":
            kw = {"d_max": d}
            found = find_near_triads(spec, domain, d, patterns, closure)
        else:
            kw = {"d_min": d}
            found = find_max_discrepancy_triads(spec, domain, d, patterns,
                                                closure)
        expected = search_oracle(spec, domain, closure, patterns, **kw)
        assert fields(found) == fields(expected)
        if spec is OVERFLOWING and mode == "maxd":
            assert not all(map(finite, expected))

        work = tmp_path_factory.mktemp("columns")
        config = work / "spec.json"
        config.write_text(json.dumps(spec.to_config()))
        argv = ["find-triads", "--config", str(config), "--T", str(T),
                "--shape", shape, "--patterns", patterns, "--closure",
                closure, {"near": "--d-max", "maxd": "--d-min"}[mode],
                repr(d), "--no-header"]
        for fmt, oracle in (("json", json_oracle), ("csv", csv_oracle),
                            ("table", lambda triads: joined(
                                write_triads_table, triads))):
            out = work / fmt
            assert cli.main([*argv, "--format", fmt, "--output", str(out)]) \
                == 0
            assert out.read_text() == oracle(expected)
