"""Seeded query lists for the three workloads, and the fixed anchor queries.

A query is a plain dict (JSON-serialisable, so the list can be digested and
compared across commits).  ``via`` says how it reaches the program:
``cli`` queries run ``wavetriads.cli.main`` and write their output to a
file; ``lib`` queries call the public library function named by ``op``.

Every seeded list is built from tiers of fixed size and truncation, with
the seed drawing the physical parameters (liquid, surface tension, basin,
thresholds) and small truncation offsets in pairs T = c - j, c + j.  The
work of a pass then barely depends on the seed, which keeps the end-to-end
figures of different seeds comparable; the search cost grows like T^4, so
free draws over the whole truncation range would not.

Each list is a ladder of three rungs of three queries: the rungs' costs
stand apart by a third or more, the queries within the middle and top
rungs cost about the same.  With the nine passes of a run (run.py) the
pooled median then falls in the middle of the middle rung's 27 times and
the tail (the eleventh-largest time) inside the top rung's 27, so each is
a quantile of many like samples; a seed that moved either across a step
of the ladder would move the figures more than the program does.  A pass
takes about 1.5 s.
"""

from __future__ import annotations

import math
import random

LIQUIDS = {"water": 75.0, "glycerine": 47.0, "benzol": 27.0,
           "benzaldehyde": 16.0}

# Published values the anchors check, copied from the source paper's tables
# (wave vectors, frequencies in Hz).
TYPE_A_WATER = ((1, 2), (9, 1), (10, 3), (8.7638, 40.4435, 49.2073))
TYPE_B = {
    75.0: ((11, 15), (14, 15), (25, 30), (112.6460, 130.0788, 337.7987)),
    47.0: ((14, 14), (15, 16), (29, 30), (98.6504, 114.4728, 295.8396)),
    27.0: ((4, 4), (26, 26), (30, 30), (16.2595, 186.8502, 230.8321)),
    16.0: ((5, 5), (25, 25), (30, 30), (17.8606, 137.0759, 178.8991)),
}
BENZALDEHYDE_D_RATIO = 1.3416
SPHERE_EXACT_TRIAD = ((4, 12), (5, 14), (9, 13))
SPHERE_T20_COUNTS = {"active": 51, "neutral": 3}
SQUARE_T20_COUNTS = {"active": 53, "neutral": 0}

# Classifier conventions under which the published mode counts reproduce.
SPHERE_CONVENTION = {"patterns": "sum", "closure": "zonal",
                     "n_selection": "parity", "bridge_mode": "per_triad"}
PLANE_CONVENTION = {"patterns": "all", "closure": "box",
                    "bridge_mode": "per_pair"}
SPHERE_OMEGA_MAX = 0.03
SQUARE_OMEGA_MAX = 0.013
RECTANGLE_OMEGA_MAX = 1e-4

SPHERE = {"kind": "rossby_sphere"}
BVE_SQUARE = {"kind": "bve_plane", "plane_form": "squared"}
BVE_QUARTER = {"kind": "bve_plane", "plane_form": "squared", "lx": 1.0,
               "ly": 4.0}

WORKLOADS = ("near-scan", "inventory-render", "classify-exact")


def _sig(x: float, digits: int = 3) -> float:
    return float(f"{x:.{digits}g}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return _sig(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _gravity_capillary(rng: random.Random) -> dict:
    if rng.random() < 0.5:
        name = rng.choice(sorted(LIQUIDS))
        return {"kind": "gravity_capillary", "liquid": name,
                "mu_over_nu": LIQUIDS[name]}
    return {"kind": "gravity_capillary",
            "mu_over_nu": round(rng.uniform(16.0, 75.0), 2)}


def _with_basin(rng: random.Random, disp: dict) -> dict:
    r = rng.random()
    if r < 0.4:
        return disp
    if r < 0.7:
        side = round(rng.uniform(1.5, 3.0), 2)
        return {**disp, "lx": side, "ly": side}
    return {**disp, "lx": 1.0, "ly": round(rng.uniform(1.5, 4.0), 2)}


def _near_dispersion(rng: random.Random) -> dict:
    disp = {"kind": "capillary"} if rng.random() < 0.2 else _gravity_capillary(rng)
    return _with_basin(rng, disp)


def _pair(rng: random.Random, centre: int, spread: int) -> tuple:
    j = rng.randint(0, spread)
    return centre - j, centre + j


def near_scan(rng: random.Random) -> list:
    """Near-resonance searches rendered as tables, T from 75 to 93: a
    brute-force search and two sum-pattern searches about T=76, three
    about T=88 in the middle, and three all-pattern ones about T=92 on top.

    d_max is drawn from 1e-6 to 1e-4 on the cheap rung and from 1e-6 to
    1e-5 on the others: the hits, and the cost of building them, grow with
    d_max, and near 1e-4 they would add a seed-dependent tenth to the
    queries that set the median and the tail."""
    ladder = []
    for centre, pat, d_hi in ((76, "sum", 1e-4), (88, "sum", 1e-5),
                              (92, "all", 1e-5)):
        lo, hi = _pair(rng, centre, 1)
        ladder += [(T, pat, d_hi) for T in (lo, hi)
                   + ((centre,) if centre > 76 else ())]
    qs = [{"op": "near", "via": "cli", "format": "table",
           "disp": _near_dispersion(rng), "T": T,
           "d_max": _log_uniform(rng, 1e-6, d_hi), "patterns": pat,
           "closure": "both", "probe": pat == "all"} for T, pat, d_hi in ladder]
    qs.append({"op": "near", "via": "cli", "format": "table", "role": "bruteforce",
               "disp": _near_dispersion(rng), "T": rng.randint(12, 16),
               "d_max": _log_uniform(rng, 1e-3, 3e-2),
               "patterns": rng.choice(("sum", "all")), "closure": "both"})
    return qs


G = 981.0
INVENTORY_SHARE = 0.86


def _gravity_capillary_omegas(disp: dict, T: int) -> dict:
    """omega(m, n) of a gravity-capillary spec, computed here so that the
    query list does not depend on the program under test."""
    mu, lx, ly = disp["mu_over_nu"], disp.get("lx", 1.0), disp.get("ly", 1.0)
    w = {}
    for m in range(1, T + 1):
        for n in range(1, T + 1):
            if lx == ly:
                k = math.sqrt(m * m + n * n)
                w[m, n] = math.sqrt(G * k + mu * k ** 3 / (lx * lx))
            else:
                s, area = (m * ly) ** 2 + (n * lx) ** 2, lx * ly
                w[m, n] = math.sqrt(G * math.sqrt(s) / area
                                    + mu * s ** 1.5 / (area * area))
    return w


def _d_min_keeping(disp: dict, T: int, share: float) -> float:
    """A d_min that keeps ``share`` of the sum-pattern candidates of the
    square domain: midway between two neighbouring d_ratio values."""
    w = _gravity_capillary_omegas(disp, T)
    ds = []
    for m1 in range(1, T):
        for n1 in range(1, T):
            w1 = w[m1, n1]
            for m2 in range(m1, T - m1 + 1):
                for n2 in range(n1 if m2 == m1 else 1, T - n1 + 1):
                    w2, w3 = w[m2, n2], w[m1 + m2, n1 + n2]
                    ds.append(abs(w1 + w2 - w3) / min(w1, w2, w3))
    ds.sort(reverse=True)
    keep = int(share * len(ds))
    return float(f"{(ds[keep - 1] + ds[keep]) / 2:.6g}")


def inventory_render(rng: random.Random) -> list:
    """Type-B inventories and plans of 10^3 triads and more, rendered in
    every format, plus one many-hit gravity_tanh near search: a table plan
    at T=9, the tanh search and a brute-force inventory are the cheap
    rung, two csv inventories and a json plan at T=12 the middle, and
    three json inventories at T=14 the top.

    The seed draws liquid and basin; d_min then follows from them so that
    each inventory keeps the same share of its candidates (at T=20 the
    benzaldehyde inventory holds 16,564 triads at d_min 0.05 and 8,563 at
    0.3, so a free d_min would make the work depend on the seed)."""
    def gravity_capillary():
        disp = _gravity_capillary(rng)
        r = rng.random()
        if r < 0.4:
            return disp
        if r < 0.7:
            side = round(rng.uniform(1.5, 2.5), 2)
            return {**disp, "lx": side, "ly": side}
        return {**disp, "lx": 1.0, "ly": round(rng.uniform(1.2, 2.0), 2)}

    qs = []
    for op, T, fmt in (("plan", 9, "table"), ("maxd", 12, "csv"),
                       ("maxd", 12, "csv"), ("plan", 12, "json"),
                       ("maxd", 14, "json"), ("maxd", 14, "json"),
                       ("maxd", 14, "json")):
        # Plans keep the unit basin: rebuilding a triad costs more on a
        # rectangle, whose frequencies take the two-term formula.
        disp = _gravity_capillary(rng) if op == "plan" else gravity_capillary()
        q = {"op": op, "via": "cli", "format": fmt, "disp": disp, "T": T,
             "d_min": _d_min_keeping(disp, T, INVENTORY_SHARE),
             "probe": op == "plan" or T == 14}
        if op == "plan":
            q.update(d_max=_log_uniform(rng, 1e-6, 1e-4),
                     epsilon=_sig(rng.uniform(0.05, 0.2), 2))
        else:
            q.update(patterns="sum", closure="auto")
        qs.append(q)
    qs.append({"op": "near", "via": "cli", "format": "csv",
               "disp": {"kind": "gravity_tanh",
                        "alpha": _sig(rng.uniform(0.45, 0.55))},
               "T": 32, "d_max": _log_uniform(rng, 0.8e-5, 1.25e-5),
               "patterns": "sum", "closure": "auto", "probe": True})
    qs.append({"op": "maxd", "via": "cli", "format": "json", "role": "bruteforce",
               "disp": _with_basin(rng, _gravity_capillary(rng)),
               "T": rng.randint(9, 10), "d_min": _sig(rng.uniform(0.05, 0.3), 2),
               "patterns": rng.choice(("sum", "all")), "closure": "auto"})
    return qs


def classify_exact(rng: random.Random) -> list:
    """Exact rational searches, bounds, classifications and a cascade: the
    cascade, a brute-force exact search and a bound about T=10 are the
    cheap rung, the exact search at T=20, the bound at T=13 and the
    rectangle classification at T=12 the middle, and the sphere
    classification at T=12 and two square ones at T=15 the top.

    The seed draws the truncation of the cheap rung and the
    classifications' omega_max about the calibrated value; the other
    truncations are fixed."""
    def omega(base):
        return _sig(base * _log_uniform(rng, 0.9, 1.1))

    qs = [{"op": "bound", "via": "lib", "disp": SPHERE, "T": T,
           "shape": "triangular", "probe": True} for T in (rng.randint(9, 11), 13)]
    qs.append({"op": "exact", "via": "lib", "disp": SPHERE, "T": 20,
               "shape": "triangular"})
    for disp, shape, T, base, conv in (
            (BVE_QUARTER, "square", 12, RECTANGLE_OMEGA_MAX, PLANE_CONVENTION),
            (SPHERE, "triangular", 12, SPHERE_OMEGA_MAX, SPHERE_CONVENTION),
            (BVE_SQUARE, "square", 15, SQUARE_OMEGA_MAX, PLANE_CONVENTION),
            (BVE_SQUARE, "square", 15, SQUARE_OMEGA_MAX, PLANE_CONVENTION)):
        qs.append({"op": "classify", "via": "lib", "disp": disp, "T": T,
                   "shape": shape, "convention": conv, "omega_max": omega(base)})
    qs.append({"op": "cascade", "via": "lib", "disp": SPHERE,
               "T": rng.randint(16, 24), "shape": "triangular",
               "seed_triad": SPHERE_EXACT_TRIAD, "depth": rng.randint(3, 8)})
    qs.append({"op": "exact", "via": "lib", "role": "bruteforce", "disp": SPHERE,
               "T": rng.randint(12, 14), "shape": "triangular"})
    return qs


GENERATORS = {"near-scan": near_scan, "inventory-render": inventory_render,
              "classify-exact": classify_exact}


def _type_b_anchor(mu: float) -> dict:
    return {"op": "maxd", "via": "lib",
            "disp": {"kind": "gravity_capillary", "mu_over_nu": mu},
            "T": 30, "d_min": 0.1, "patterns": "sum", "closure": "auto",
            "expect": {"triad": TYPE_B[mu],
                       **({"d_ratio": BENZALDEHYDE_D_RATIO}
                          if mu == 16.0 else {})}}


def anchors(workload: str) -> list:
    """Seed-independent queries with published answers.  The four Type-B
    inventories at T=30 are the costliest anchors, so they are split
    between the two search workloads to even out the length of a run."""
    if workload == "near-scan":
        return [{"op": "near", "via": "cli", "format": "table",
                 "disp": {"kind": "gravity_capillary", "liquid": "water",
                          "mu_over_nu": 75.0},
                 "T": 30, "d_max": 1e-5, "patterns": "sum", "closure": "auto",
                 "expect": {"triad": TYPE_A_WATER}},
                _type_b_anchor(75.0), _type_b_anchor(47.0)]
    if workload == "inventory-render":
        return [_type_b_anchor(27.0), _type_b_anchor(16.0)]
    return [
        {"op": "exact", "via": "lib", "disp": SPHERE, "T": 14,
         "shape": "triangular", "expect": {"exact_triad": SPHERE_EXACT_TRIAD}},
        {"op": "classify", "via": "lib", "disp": SPHERE, "T": 20,
         "shape": "triangular", "convention": SPHERE_CONVENTION,
         "omega_max": SPHERE_OMEGA_MAX, "expect": {"counts": SPHERE_T20_COUNTS}},
        {"op": "classify", "via": "lib", "disp": BVE_SQUARE, "T": 20,
         "shape": "square", "convention": PLANE_CONVENTION,
         "omega_max": SQUARE_OMEGA_MAX, "expect": {"counts": SQUARE_T20_COUNTS}},
    ]


def coverage_queries() -> list:
    """Small fixed queries that reach every traced layer once per traced
    pass, so that a layer a workload bypasses reports the constant cost of
    these queries rather than nothing.  Untraced runs leave them out."""
    water = {"kind": "gravity_capillary", "liquid": "water", "mu_over_nu": 75.0}
    qs = [
        {"op": "plan", "via": "cli", "format": "table", "disp": water, "T": 10,
         "d_max": 1e-3, "d_min": 0.1, "epsilon": 0.1},
        {"op": "maxd", "via": "cli", "format": "json", "disp": water, "T": 8,
         "d_min": 0.1, "patterns": "sum", "closure": "auto"},
        {"op": "classify", "via": "lib", "disp": SPHERE, "T": 8,
         "shape": "triangular", "convention": SPHERE_CONVENTION,
         "omega_max": SPHERE_OMEGA_MAX},
        {"op": "bound", "via": "lib", "disp": SPHERE, "T": 8,
         "shape": "triangular"},
        {"op": "cascade", "via": "lib", "disp": SPHERE, "T": 14,
         "shape": "triangular", "seed_triad": SPHERE_EXACT_TRIAD, "depth": 2},
    ]
    for i, q in enumerate(qs):
        q["role"] = "coverage"
        q["id"] = f"coverage{i}"
    return qs


def queries(workload: str, seed: int) -> list:
    """The seeded query list of one pass, each with a stable ``id``."""
    rng = random.Random(f"{workload}:{seed}")
    qs = GENERATORS[workload](rng)
    for i, q in enumerate(qs):
        q.setdefault("role", "seeded")
        q["id"] = f"{workload}/{i:02d}"
    return qs


def anchor_queries(workload: str) -> list:
    qs = anchors(workload)
    for i, q in enumerate(qs):
        q["role"] = "anchor"
        q["id"] = f"{workload}/anchor{i}"
    return qs
