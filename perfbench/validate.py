"""Independent checks of every query's output.

Each check returns a list of problems; an empty list means the output is
valid.  The checks re-derive what they can without trusting the program:

* closure and threshold hold for every emitted triad;
* the documented sort order holds and no triad key repeats;
* on a seeded sample, stored frequencies and residuals equal the public
  ``eval_frequency`` and ``discrepancy`` bit for bit (tables print rounded
  values, so there every printed value is compared with its re-rendering);
* exact triads carry a ``Fraction`` residual equal to 0;
* a partition covers its domain exactly;
* the brute-force query of each pass equals an enumeration written here;
* anchors contain the published triads and counts.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
from fractions import Fraction

import wavetriads as W

import execute

SIGN_PATTERNS = ((1, 1, -1), (1, -1, 1), (-1, 1, 1))
NUMERIC_EXACT_D = 1e-12
SAMPLE = 64
TWO_PI = 2.0 * math.pi
# Selection runs on tabulated frequencies and the stored values come from
# scalar re-evaluation, so a triad this close to the threshold may fall on
# either side; the brute-force comparison leaves such triads out.
BOUNDARY_REL = 1e-9
# The published frequencies and ratios carry four decimals.
PUBLISHED_TOL = 1e-3

TABLE_LINE = re.compile(
    r"^ *\[(\d+),(\d+)\]\[(\d+),(\d+)\]\[(\d+),(\d+)\] +\(([^)]*)\);  "
    r"d=(\S+)  ([+-]{3})$")


class Row:
    """One emitted triad, from whichever output form carried it.  ``ws``,
    ``om`` and ``d`` are None when only rounded text is available."""

    __slots__ = ("ks", "ws", "om", "d", "signs", "hz", "text")

    def __init__(self, ks, ws=None, om=None, d=None, signs=(1, 1, -1),
                 hz=None, text=None):
        self.ks, self.ws, self.om, self.d = ks, ws, om, d
        self.signs, self.hz, self.text = signs, hz, text


def _signs(text: str) -> tuple:
    return tuple(1 if c == "+" else -1 for c in text)


def _parse_num(x):
    if isinstance(x, str) and "/" in x:
        p, q = x.split("/")
        return Fraction(int(p), int(q))
    return float(x) if isinstance(x, str) else x


def rows_from_triads(triads) -> list:
    return [Row((tuple(t.k1), tuple(t.k2), tuple(t.k3)), tuple(t.omegas),
                t.discrepancy, t.d_ratio, tuple(t.signs)) for t in triads]


def rows_from_records(records) -> list:
    rows = []
    for r in records:
        ws = tuple(_parse_num(r[f"omega{i}"]) for i in (1, 2, 3))
        rows.append(Row(((int(r["m1"]), int(r["n1"])), (int(r["m2"]), int(r["n2"])),
                         (int(r["m3"]), int(r["n3"]))),
                        ws, _parse_num(r["discrepancy"]), float(r["d_ratio"]),
                        _signs(r["signs"]),
                        hz=tuple(float(r[f"hz{i}"]) for i in (1, 2, 3)),
                        text=r.get("resonance")))
    return rows


def rows_from_table(lines) -> tuple:
    rows, bad = [], []
    for line in lines:
        m = TABLE_LINE.match(line)
        if not m:
            bad.append(line)
            continue
        g = [int(x) for x in m.group(1, 2, 3, 4, 5, 6)]
        rows.append(Row(((g[0], g[1]), (g[2], g[3]), (g[4], g[5])),
                        signs=_signs(m.group(9)), hz=m.group(7), text=m.group(8)))
    return rows, bad


# -- triad lists ----------------------------------------------------------------

def _inside(k, T, triangular) -> bool:
    m, n = k
    return 1 <= m <= T and 1 <= n <= T and (not triangular or m <= n)


def _closes(ks, closure) -> bool:
    (m1, n1), (m2, n2), (m3, n3) = ks
    if closure == "both":
        return m3 == m1 + m2 and n3 == n1 + n2
    if closure == "zonal":
        return m3 == m1 + m2
    return (m3 in (m1 + m2, abs(m1 - m2)) and n3 in (n1 + n2, abs(n1 - n2))
            and ks[2] > ks[1])


def _residual(ws, signs):
    return signs[0] * ws[0] + signs[1] * ws[1] + signs[2] * ws[2]


def _min_pattern(ws):
    best = None
    for signs in SIGN_PATTERNS:
        om = _residual(ws, signs)
        if best is None or abs(om) < abs(best[0]):
            best = (om, signs)
    return best


def _d_ratio(om, ws) -> float:
    return abs(float(om)) / min(abs(float(w)) for w in ws)


def _omegas(spec, ks):
    return tuple(W.eval_frequency(spec, W.WaveVector(*k)).omega for k in ks)


def _sample(rng, n):
    if n <= SAMPLE:
        return range(n)
    return sorted({0, n - 1, *rng.sample(range(n), SAMPLE - 2)})


def check_rows(rows, spec, dom, *, closure, patterns, order, rng,
               d_max=None, d_min=None, exact=False) -> list:
    """Closure, threshold, sign pattern, order, uniqueness and values."""
    errs = []
    T, tri = dom.truncation, dom.shape == "triangular"
    keys = set()
    for i, r in enumerate(rows):
        where = f"triad {i} {r.ks}"
        if r.ks in keys:
            errs.append(f"{where}: duplicate key")
        keys.add(r.ks)
        if not all(_inside(k, T, tri) for k in r.ks):
            errs.append(f"{where}: outside the domain")
        if not _closes(r.ks, closure):
            errs.append(f"{where}: violates {closure} closure")
        if r.ws is None:
            # Table row: the values are re-derived from the public API and
            # must render exactly as printed.
            ws = _omegas(spec, r.ks)
            om = W.discrepancy(spec, [W.WaveVector(*k) for k in r.ks], r.signs)
            d = _d_ratio(om, ws)
            hz = ", ".join(f"{W.to_hz(w):.4f}" for w in ws)
            if hz != r.hz or f"{d:.3e}" != r.text:
                errs.append(f"{where}: printed ({r.hz}) d={r.text}, "
                            f"public API gives ({hz}) d={d:.3e}")
            r.ws, r.om, r.d = ws, om, d
        else:
            om = _residual(r.ws, r.signs)
            if om != r.om or _d_ratio(om, r.ws) != r.d:
                errs.append(f"{where}: stored residual or d_ratio does not "
                            f"follow from the stored frequencies")
            if r.hz is not None and r.hz != tuple(float(w) / TWO_PI for w in r.ws):
                errs.append(f"{where}: hz columns differ from omega / 2 pi")
            if r.text is not None:
                label = ("exact" if r.om == 0 else "near") \
                    if isinstance(r.om, Fraction) else \
                    ("numerically_exact" if r.d <= NUMERIC_EXACT_D else "near")
                if r.text != label:
                    errs.append(f"{where}: resonance label {r.text!r}")
        if patterns == "sum" and r.signs != (1, 1, -1):
            errs.append(f"{where}: sum pattern stored signs {r.signs}")
        if patterns == "all" and _min_pattern(r.ws)[1] != r.signs:
            errs.append(f"{where}: signs {r.signs} are not the minimal pattern")
        if d_max is not None and not r.d <= d_max:
            errs.append(f"{where}: d_ratio {r.d!r} above d_max {d_max!r}")
        if d_min is not None and not r.d >= d_min:
            errs.append(f"{where}: d_ratio {r.d!r} below d_min {d_min!r}")
        if exact and not (isinstance(r.om, Fraction) and r.om == 0):
            errs.append(f"{where}: exact triad with residual {r.om!r}")
    if order == "asc":
        sort_key = lambda r: (r.d, r.ks)            # noqa: E731
    elif order == "desc":
        sort_key = lambda r: (-r.d, r.ks)           # noqa: E731
    else:
        sort_key = lambda r: r.ks                   # noqa: E731
    if any(sort_key(a) > sort_key(b) for a, b in zip(rows, rows[1:])):
        errs.append(f"rows are not in {order} order")
    for i in _sample(rng, len(rows)):
        r = rows[i]
        ws = _omegas(spec, r.ks)
        om = W.discrepancy(spec, [W.WaveVector(*k) for k in r.ks], r.signs)
        if ws != tuple(r.ws) or om != r.om or type(om) is not type(r.om):
            errs.append(f"triad {i} {r.ks}: stored values differ from "
                        f"eval_frequency/discrepancy")
    return errs[:20]


# -- brute force ----------------------------------------------------------------

def brute_force_float(spec, T, patterns, d_max=None, d_min=None) -> dict:
    """Component-wise closed triads on the square domain, by threshold."""
    out = {}
    modes = [(m, n) for m in range(1, T + 1) for n in range(1, T + 1)]
    for k1 in modes:
        for k2 in modes:
            if k2 < k1:
                continue
            k3 = (k1[0] + k2[0], k1[1] + k2[1])
            if not _inside(k3, T, False):
                continue
            ks = (k1, k2, k3)
            ws = _omegas(spec, ks)
            om, signs = (_residual(ws, (1, 1, -1)), (1, 1, -1)) \
                if patterns == "sum" else _min_pattern(ws)
            d = _d_ratio(om, ws)
            thr = d_max if d_max is not None else d_min
            if abs(d - thr) <= BOUNDARY_REL * thr:
                out[ks] = None               # either side is acceptable
            elif (d <= d_max) if d_max is not None else (d >= d_min):
                out[ks] = (ws, om, d, signs)
    return out


def brute_force_exact(spec, T) -> set:
    """Exact zonal sum triads on the triangular domain, n1 != n2."""
    modes = [(m, n) for m in range(1, T + 1) for n in range(m, T + 1)]
    ws = {k: W.eval_frequency(spec, W.WaveVector(*k)).omega for k in modes}
    found = set()
    for i, k1 in enumerate(modes):
        for k2 in modes[i + 1:]:
            if k1[1] == k2[1]:
                continue
            m3 = k1[0] + k2[0]
            for n3 in range(m3, T + 1):
                if ws[k1] + ws[k2] == ws[(m3, n3)]:
                    found.add((k1, k2, (m3, n3)))
    return found


def compare_brute_force(q, rows, spec) -> list:
    if q["op"] == "exact":
        got = {r.ks for r in rows}
        want = brute_force_exact(spec, q["T"])
        return [] if got == want else [
            f"exact search differs from brute force: {len(got ^ want)} triads"]
    ref = brute_force_float(spec, q["T"], q["patterns"], q.get("d_max"),
                            q.get("d_min"))
    errs = []
    got = {r.ks: r for r in rows}
    for ks, want in ref.items():
        if want is not None and ks not in got:
            errs.append(f"brute force finds {ks}, the program does not")
    for ks, r in got.items():
        if ks not in ref:
            errs.append(f"program emits {ks}, brute force rejects it")
        elif ref[ks] is not None:
            ws, om, d, signs = ref[ks]
            if r.signs != signs or tuple(r.ws) != ws or r.om != om or r.d != d:
                errs.append(f"{ks}: values differ from brute force")
    return errs[:20]


# -- per-op checks -----------------------------------------------------------

AMPLITUDE_LINE = re.compile(r"^  \[(\d+),(\d+)\] +(\S+)$")


def _plan_from_table(lines) -> tuple:
    """Plan table sections: Type A rows, Type B rows, amplitude texts."""
    sections = {"Type A": [], "Type B": [], "Amplitudes": []}
    current = None
    for line in lines:
        head = next((h for h in sections if line.startswith(h + " (")), None)
        if head:
            current = head
        elif current and line != "  (none)":
            sections[current].append(line)
    amp_lines = sections["Amplitudes"][:-1]       # the last line is the note
    amps, bad = [], []
    for line in amp_lines:
        m = AMPLITUDE_LINE.match(line)
        if m:
            amps.append(((int(m.group(1)), int(m.group(2))), m.group(3)))
        else:
            bad.append(line)
    a, bad_a = rows_from_table(sections["Type A"])
    b, bad_b = rows_from_table(sections["Type B"])
    return {"type_a": a, "type_b": b, "amplitudes": amps}, bad + bad_a + bad_b


def _load_cli(q, path) -> tuple:
    """(rows, payload, problems) from a CLI output file; a plan's payload
    holds its two triad lists and its amplitudes."""
    with open(path) as fh:
        text = fh.read()
    if q["format"] == "json":
        doc = json.loads(text)
        if set(doc) != {"config", "result"}:
            return [], None, ["json output lacks config/result"]
        payload = doc["result"]
        if q["op"] != "plan":
            return rows_from_records(payload), None, []
        return [], {"type_a": rows_from_records(payload["type_a"]),
                    "type_b": rows_from_records(payload["type_b"]),
                    "amplitudes": [((x["m"], x["n"]), x["amplitude_cm"])
                                   for x in payload["amplitudes"]]}, []
    lines = [ln for ln in text.splitlines() if not ln.startswith("# ")]
    if q["format"] == "csv":
        reader = csv.DictReader(lines)
        return rows_from_records(list(reader)), None, []
    if q["op"] == "plan":
        payload, bad = _plan_from_table(lines)
        return [], payload, [f"unparsable plan line {b!r}" for b in bad[:5]]
    rows, bad = rows_from_table(lines)
    return rows, None, [f"unparsable table line {b!r}" for b in bad[:5]]


def _triad_checks(q, rows, spec, dom, rng, op=None) -> list:
    """Near and max-discrepancy lists, or exact triads; a plan passes the
    op of each of its two lists."""
    op = op or q["op"]
    patterns = q.get("patterns", "sum")
    if op == "near":
        return check_rows(rows, spec, dom, closure=execute.resolved_closure(q),
                          patterns=patterns, order="asc", rng=rng,
                          d_max=q["d_max"])
    if op == "maxd":
        return check_rows(rows, spec, dom, closure=execute.resolved_closure(q),
                          patterns=patterns, order="desc", rng=rng,
                          d_min=q["d_min"])
    return check_rows(rows, spec, dom, closure="zonal", patterns="sum",
                      order="key", rng=rng, exact=True)


def _check_plan(q, plan, spec, dom, rng) -> list:
    a, b = plan["type_a"], plan["type_b"]
    errs = _triad_checks(q, a, spec, dom, rng, op="near")
    errs += _triad_checks(q, b, spec, dom, rng, op="maxd")
    members = sorted({k for r in a + b for k in r.ks})
    amps = plan["amplitudes"]
    if [k for k, _ in amps] != members:
        errs.append("amplitudes do not list exactly the plan's waves in order")
    for i in _sample(rng, len(amps)):
        k, amp = amps[i]
        want = W.steepness_amplitude(W.WaveVector(*k), q["epsilon"], spec)
        if amp != (f"{want:.6f}" if isinstance(amp, str) else want):
            errs.append(f"amplitude of {k} differs from steepness_amplitude")
    return errs


def _check_partition(q, part, spec, dom) -> list:
    errs = []
    T, tri = dom.truncation, dom.shape == "triangular"
    modes = {(m, n) for m in range(1, T + 1)
             for n in range(m if tri else 1, T + 1)}
    if set(map(tuple, part.assignments)) != modes:
        errs.append("partition does not cover the domain exactly")
    classes = [a.mode_class for a in part.assignments.values()]
    if any(c not in ("active", "passive", "neutral") for c in classes):
        errs.append("unknown mode class")
    if part.counts() != tuple(classes.count(c)
                              for c in ("active", "passive", "neutral")):
        errs.append("counts() disagrees with the assignments")
    closure = q["convention"]["closure"]
    for t in part.resonant_triads:
        ks = (tuple(t.k1), tuple(t.k2), tuple(t.k3))
        om = W.discrepancy(spec, [t.k1, t.k2, t.k3], t.signs)
        if spec.kind == "rossby_sphere":
            ok = isinstance(om, Fraction) and om == 0 and t.discrepancy == 0
        else:
            ok = _d_ratio(om, _omegas(spec, ks)) <= NUMERIC_EXACT_D
        if not ok or not _closes(ks, closure):
            errs.append(f"seed {ks} is not a closed resonance")
        if any(part.assignments[k].mode_class != "active" for k in t.members()):
            errs.append(f"seed {ks} has a member outside the active class")
    for s in part.bridges:
        if not 0 < s.abs_discrepancy <= q["omega_max"]:
            errs.append(f"bridge {s.bridge_wave} outside (0, omega_max]")
        if part.assignments[s.bridge_wave].mode_class != "active":
            errs.append(f"bridge {s.bridge_wave} is not active")
    for k, a in part.assignments.items():
        if a.mode_class == "passive" and not (
                a.min_abs_discrepancy is not None
                and 0 < a.min_abs_discrepancy <= q["omega_max"]):
            errs.append(f"passive mode {tuple(k)} without an ARI triad")
    return errs[:20]


def _check_bound(rep, spec, dom) -> list:
    errs = []
    lcm = 1
    for k in dom.modes():
        den = W.eval_frequency(spec, k).omega.denominator
        lcm = lcm * den // math.gcd(lcm, den)
    if rep.apriori is None or rep.apriori.value != Fraction(1, lcm * lcm):
        errs.append("a-priori bound is not 1/lcm^2 of the denominators")
    fm = rep.finite_min
    if fm is None or fm.witness is None:
        return errs + ["no finite-domain minimum"]
    w = fm.witness
    om = W.discrepancy(spec, [w.k1, w.k2, w.k3], w.signs)
    if not (fm.value > 0 and fm.value == abs(om) == abs(w.discrepancy)):
        errs.append("finite minimum does not equal its witness residual")
    if not _closes((tuple(w.k1), tuple(w.k2), tuple(w.k3)), "zonal") \
            or not all(k in dom for k in w.members()):
        errs.append("witness is not a closed triad of the domain")
    if rep.apriori is not None and not rep.apriori.value <= fm.value:
        errs.append("a-priori bound exceeds the finite minimum")
    return errs


def _check_cascade(q, steps, spec) -> list:
    errs = []
    if not 1 <= len(steps) <= q["depth"]:
        errs.append(f"{len(steps)} cascade steps for depth {q['depth']}")
    if steps and tuple(map(tuple, steps[0].source_triad.key())) != \
            tuple(map(tuple, q["seed_triad"])):
        errs.append("cascade does not start at its seed")
    for s in steps:
        ka, kb = s.donor_pair
        w = s.bridge_wave
        if not {ka, kb} <= set(s.source_triad.members()) \
                or w in s.source_triad.members() or w.m != ka.m + kb.m:
            errs.append(f"step to {w} is not a zonal bridge of its triad")
        om = W.discrepancy(spec, [ka, kb, w])
        if om != s.bridge_discrepancy or om == 0:
            errs.append(f"step to {w}: residual differs from discrepancy()")
    return errs


def _check_expect(q, rows, result) -> list:
    exp = q.get("expect", {})
    errs = []
    if "triad" in exp:
        *ks, hz = exp["triad"]
        match = [r for r in rows if r.ks == tuple(ks)]
        if not match:
            return [f"published triad {ks} missing"]
        got = match[0].hz
        if isinstance(got, str):
            got = tuple(float(x) for x in got.split(","))
        elif got is None:
            got = tuple(W.to_hz(w) for w in match[0].ws)
        if any(abs(g - h) >= PUBLISHED_TOL for g, h in zip(got, hz)):
            errs.append(f"published triad {ks}: Hz {got} vs {hz}")
        if "d_ratio" in exp and abs(match[0].d - exp["d_ratio"]) >= PUBLISHED_TOL:
            errs.append(f"published d_ratio {exp['d_ratio']}, got {match[0].d}")
    if "exact_triad" in exp:
        ks = tuple(exp["exact_triad"])
        if not any(r.ks == ks and isinstance(r.om, Fraction) and r.om == 0
                   for r in rows):
            errs.append(f"exact triad {ks} missing")
    if "counts" in exp:
        a, _, n = result.counts()
        want = exp["counts"]
        if (a, n) != (want["active"], want["neutral"]):
            errs.append(f"counts active/neutral {a}/{n}, published "
                        f"{want['active']}/{want['neutral']}")
    return errs


def check(q: dict, result, seed: int) -> list:
    """All checks that apply to one query result."""
    rng = random.Random(f"{q['id']}:{seed}")
    spec, dom = execute.spec_of(q["disp"]), execute.domain_of(q)
    rows, payload = [], None
    try:
        if q["via"] == "cli":
            rows, payload, errs = _load_cli(q, result)
            if errs:
                return errs
        elif q["op"] in ("maxd", "exact"):
            rows = rows_from_triads(result)
        if q["op"] == "plan":
            errs = _check_plan(q, payload, spec, dom, rng)
        elif q["op"] in ("near", "maxd", "exact"):
            errs = _triad_checks(q, rows, spec, dom, rng)
        elif q["op"] == "classify":
            errs = _check_partition(q, result, spec, dom)
        elif q["op"] == "bound":
            errs = _check_bound(result, spec, dom)
        else:
            errs = _check_cascade(q, result, spec)
        if q["role"] == "bruteforce":
            errs += compare_brute_force(q, rows, spec)
        errs += _check_expect(q, rows, result)
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        errs = [f"malformed output: {type(exc).__name__}: {exc}"]
    return errs
