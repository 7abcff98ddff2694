import csv
import io
import json
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from wavetriads import (
    DispersionSpec,
    SpectralDomain,
    UsageError,
    WaveVector,
    classify_modes,
    discrepancy_lower_bound,
    find_max_discrepancy_triads,
    find_near_triads,
    plan_experiment,
    to_hz,
)
from wavetriads import classify, cli, report, search
from wavetriads.classify import (ACTIVE, CLASSES, NEUTRAL, PASSIVE,
                                 CascadeStep, ModeAssignment, ModePartition)
from wavetriads.dispersion import TWO_PI
from wavetriads.experiment import (ExperimentPlan, GeometrySweepReport,
                                   SweepCell)
from wavetriads.report import (
    RATIONAL_EXTRA_COLUMNS,
    TRIAD_COLUMNS,
    _num,
    bound_to_record,
    partition_to_records,
    plan_to_record,
    sweep_to_record,
    to_json,
    triad_table_line,
    triad_to_record,
    triads_to_csv,
    write_plan_table,
)
from wavetriads.search import NUMERIC_EXACT_D, Triad
from wavetriads.triad import TriadColumns, _triads
from conftest import gc_spec, pruning_specs


def partition_to_csv(part) -> str:
    """The text ``write_partition_csv`` writes, as one string."""
    return joined(report.write_partition_csv, part)


def test_partition_csv_columns(sphere, sphere_t14):
    part = classify_modes(sphere, sphere_t14, 0.03)
    lines = partition_to_csv(part).splitlines()
    assert lines[0] == "m,n,class,min_abs_discrepancy"
    assert len(lines) == 1 + len(sphere_t14)


def test_partition_records_summary(sphere, sphere_t14):
    part = classify_modes(sphere, sphere_t14, 0.03)
    doc = json.loads(to_json(partition_to_records(part)))
    s = doc["summary"]
    assert (s["active"], s["passive"], s["neutral"]) == part.counts()
    assert s["omega_max"] == 0.03
    assert len(doc["modes"]) == len(sphere_t14)
    for rec in doc["modes"]:
        assert rec["class"] in ("active", "passive", "neutral")


def test_bound_record_rational(sphere, sphere_t14):
    rec = bound_to_record(discrepancy_lower_bound(sphere, sphere_t14))
    assert "/" in rec["apriori"]["value"]
    assert rec["finite_domain_min"]["value_float"] > 0
    assert rec["finite_domain_min"]["witness"]["m1"] >= 1


def test_bound_record_of_an_empty_domain_carries_the_note():
    rec = bound_to_record(discrepancy_lower_bound(gc_spec(75),
                                                  SpectralDomain(1)))
    assert rec == {"note": "no vector-closed triad with nonzero "
                           "discrepancy in this domain"}


def test_plan_serialisation_round_trip(square_t30):
    plan = plan_experiment(gc_spec(75), square_t30, 1e-5, 0.1, 0.1)
    doc = json.loads(to_json(plan_to_record(plan)))
    assert doc["epsilon"] == 0.1
    assert doc["type_a"] and doc["type_b"]
    assert all(a["amplitude_cm"] > 0 for a in doc["amplitudes"])
    table = joined(write_plan_table, plan)
    assert "[1,2][9,1][10,3]" in table
    assert "(8.7638, 40.4435, 49.2073)" in table


def test_d_ratio_is_unit_invariant(square_t30):
    """d_ratio computed from Hz equals the stored rad/s ratio (both scale
    by 2*pi)."""
    for t in find_near_triads(gc_spec(75), square_t30, 1e-4):
        hz = [to_hz(w) for w in t.omegas]
        d_hz = abs(hz[0] + hz[1] - hz[2]) / min(hz)
        assert math.isclose(d_hz, t.d_ratio, rel_tol=1e-9)


def test_case3_dispersions_search_smoke():
    """The real-valued example dispersions run through the float machinery."""
    for spec in (DispersionSpec("gravity_tanh", alpha=0.7),
                 DispersionSpec("capillary")):
        dom = SpectralDomain(8, "square")
        triads = find_near_triads(spec, dom, 1e-2)
        for t in triads:
            assert t.k1.m + t.k2.m == t.k3.m
            assert t.k1.n + t.k2.n == t.k3.n
        rep = discrepancy_lower_bound(spec, dom)
        assert rep.finite_min is None or rep.finite_min.value > 0


# -- the JSON writer against json.dumps(indent=2) of the records -------------

def json_oracle(payload, header=None) -> str:
    """What to_json wrote before it had its own writer: json.dumps(indent=2)
    of the payload with every Triad replaced by its record."""
    def records(v):
        if isinstance(v, Triad):
            return triad_to_record(v)
        if isinstance(v, dict):
            return {k: records(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [records(x) for x in v]
        return v

    if header is not None:
        payload = {"config": header, "result": payload}
    return json.dumps(records(payload), indent=2, default=_num) + "\n"


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                  1e308, -1e308, 1.7976931348623157e308, NUMERIC_EXACT_D,
                  math.nextafter(NUMERIC_EXACT_D, 1.0), 1e16, 1e-7,
                  math.nan, math.inf, -math.inf]
FLOATS = st.floats() | st.sampled_from(SPECIAL_FLOATS)
SIGNS = st.tuples(*[st.sampled_from([1, -1])] * 3)
MODES = st.builds(WaveVector, st.integers(1, 10**6), st.integers(1, 10**6))


@st.composite
def float_triads(draw):
    """Float triads, some values numpy float scalars instead of floats."""
    w1, w2, w3, d, r = (draw(st.sampled_from([float] * 3 + [np.float64]))(
        draw(FLOATS)) for _ in range(5))
    return Triad(draw(MODES), draw(MODES), draw(MODES), (w1, w2, w3), d, r,
                 draw(SIGNS))


FRACTIONS = st.fractions() | st.sampled_from([Fraction(0), Fraction(-2, 6),
                                              Fraction(10**40, 3)])


@st.composite
def fraction_triads(draw):
    return Triad(draw(MODES), draw(MODES), draw(MODES),
                 draw(st.tuples(FRACTIONS, FRACTIONS, FRACTIONS)),
                 draw(FRACTIONS), draw(FLOATS), draw(SIGNS))


TRIADS = float_triads() | fraction_triads()
TRIAD_LISTS = st.lists(TRIADS, max_size=6)


def water_triad(ws, discrepancy, d_ratio, signs=(1, 1, -1)) -> Triad:
    return Triad(WaveVector(1, 2), WaveVector(9, 1), WaveVector(10, 3), ws,
                 discrepancy, d_ratio, signs)


@given(triads=TRIAD_LISTS)
@example(triads=[water_triad((-0.0, 5e-324, 1e308), -1e308, math.nan,
                             (1, -1, 1)),
                 water_triad((1.0, 2.0, 3.0), 0.0, math.inf, (-1, -1, -1)),
                 water_triad((1e308, 1e308, 1.0), 1e-300, -math.inf)])
@example(triads=[water_triad((1.0, 2.0, 3.0), 0.0, d) for d in
                 (NUMERIC_EXACT_D, math.nextafter(NUMERIC_EXACT_D, 1.0))])
@example(triads=[water_triad(tuple(np.float64(v) if i == j else v
                                   for i, v in enumerate((1.0, 2.0, 3.0))),
                             0.0, 0.1) for j in range(3)]
         + [water_triad((1.0, 2.0, 3.0), np.float64(0.0), 0.1),
            water_triad((1.0, 2.0, 3.0), 0.0, np.float64(0.1))])
def test_triad_list_json_matches_records(triads):
    """A top-level triad list, bare and under a header."""
    assert to_json(triads) == json_oracle(triads)
    header = {"command": "find-triads", "d_max": 1e-6}
    assert to_json(triads, header) == json_oracle(triads, header)
    assert to_json(tuple(triads)) == json_oracle(triads)


def joined(writer, *args) -> str:
    """The chunks ``writer`` hands to its ``write`` callable, joined."""
    chunks = []
    writer(chunks.append, *args)
    return "".join(chunks)


def csv_oracle(triads) -> str:
    """csv.writer over each triad's record: its values under TRIAD_COLUMNS,
    then under RATIONAL_EXTRA_COLUMNS when any triad is rational (blank
    where a float triad's record has none)."""
    rational = any(isinstance(t.discrepancy, Fraction) for t in triads)
    columns = TRIAD_COLUMNS + (RATIONAL_EXTRA_COLUMNS if rational else [])
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    for t in triads:
        rec = triad_to_record(t)
        w.writerow([rec.get(c, "") for c in columns])
    return buf.getvalue()


@given(triads=TRIAD_LISTS)
@example(triads=[water_triad((-0.0, 5e-324, 1e308), -1e308, math.nan,
                             (1, -1, 1)),
                 water_triad((np.float64(1.0), 2.0, math.inf),
                             np.float64(-math.inf), 0.5)])
@example(triads=[water_triad((Fraction(1, 3), Fraction(2, 3), Fraction(1)),
                             Fraction(0), 0.0),
                 water_triad((1.0, np.float64(2.0), 3.0), 0.0, math.nan)])
def test_triad_csv_matches_records(triads):
    """Each CSV row is its triad's record in column order."""
    assert triads_to_csv(triads) == csv_oracle(triads)
    assert triads_to_csv(iter(triads)) == csv_oracle(triads)


WATER, SQUARE_8 = gc_spec(75), SpectralDomain(8, "square")


def check_plan_json(type_a, type_b):
    plan = ExperimentPlan(WATER, SQUARE_8, 1e-6, 0.1, 0.1, type_a,
                          type_b, {WaveVector(1, 2): 0.25}, "notes")
    rec = plan_to_record(plan)
    header = {"command": "plan"}
    assert to_json(rec) == json_oracle(rec)
    assert to_json(rec, header) == json_oracle(rec, header)


def check_sweep_json(cells):
    rep = GeometrySweepReport(WATER, SQUARE_8, 1e-6, 0.3, [
        SweepCell(1.0 + i, 2.0, triads, len(triads), (1, 2, 3), not triads)
        for i, triads in enumerate(cells)])
    rec = sweep_to_record(rep)
    header = {"command": "sweep"}
    assert to_json(rec, header) == json_oracle(rec, header)


@given(type_a=TRIAD_LISTS, type_b=TRIAD_LISTS)
def test_plan_json_matches_records(type_a, type_b):
    """Triads two levels down, in a plan's type_a and type_b."""
    check_plan_json(type_a, type_b)


@given(cells=st.lists(TRIAD_LISTS, max_size=3))
def test_sweep_json_matches_records(cells):
    """Triads four levels down, in a sweep's cells[].triads."""
    check_sweep_json(cells)


# -- the writers' frequency memo: values that recur across rows --------------

#: Values a frequency memo must keep apart: zeros of both signs (equal as
#: floats), a float and a numpy scalar of equal value, and the non-finite
#: floats.
POOL_VALUES = [0.0, -0.0, 2.5, np.float64(2.5), math.nan, math.inf,
               -math.inf]


@st.composite
def pooled_triad_lists(draw, count):
    """``count`` triad lists whose frequencies, discrepancies and d_ratios
    come from one small pool, so a value recurs across rows and lists and
    the writers read its text from their memo."""
    pool = draw(st.lists(st.sampled_from(POOL_VALUES)
                         | st.floats(allow_nan=False, allow_infinity=False),
                         min_size=1, max_size=5))
    value = st.sampled_from(pool)
    triad = st.builds(Triad, MODES, MODES, MODES,
                      st.tuples(value, value, value), value, value, SIGNS)
    return [draw(st.lists(triad, max_size=6)) for _ in range(count)]


def zero_rows(*zeros) -> list:
    """Plain float rows that differ only in the sign of omega1's zero."""
    return [water_triad((z, 1.0, 2.0), 0.5, 0.25) for z in zeros]


@given(lists=pooled_triad_lists(1))
@example(lists=[zero_rows(0.0, -0.0)])
@example(lists=[zero_rows(-0.0, 0.0)])
@example(lists=[[water_triad((2.5, np.float64(2.5), 2.5), 0.0, 0.1),
                 water_triad((np.float64(2.5), 2.5, 2.5), 0.0, 0.1),
                 water_triad((math.nan, math.inf, 2.5), 0.0, 0.1),
                 water_triad((-math.inf, 2.5, 2.5), 0.0, 0.1)]])
def test_pooled_triad_list_matches_records(lists):
    """A bare list, to JSON and to CSV, whose rows repeat frequencies."""
    triads, = lists
    assert to_json(triads) == json_oracle(triads)
    assert triads_to_csv(triads) == csv_oracle(triads)


@given(lists=pooled_triad_lists(2))
@example(lists=[zero_rows(0.0), zero_rows(-0.0)])
def test_pooled_plan_json_matches_records(lists):
    """One memo serves a plan's type_a and type_b."""
    check_plan_json(*lists)


@given(lists=pooled_triad_lists(3))
@example(lists=[zero_rows(-0.0), [], zero_rows(0.0)])
def test_pooled_sweep_json_matches_records(lists):
    """One memo serves every cell of a sweep."""
    check_sweep_json(lists)


TEXT = st.text() | st.sampled_from(["", "\x00\x1f\x7f", "caf\u00e9 \u2028",
                                    "\U0001F600\ud800", '"\\/\b\f\n\r\t'])
ENVELOPES = st.recursive(
    st.none() | st.booleans() | st.integers() | FLOATS | TEXT | FRACTIONS
    | TRIADS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=12)


@given(payload=ENVELOPES, header=st.none() | st.dictionaries(TEXT, ENVELOPES,
                                                            max_size=3))
@example(payload={"a": [], "b": {}, "c": [[], {}], "\u00e9\n": None},
         header={"x": True, "y": False})
def test_envelope_json_matches_json_dumps(payload, header):
    assert to_json(payload, header) == json_oracle(payload, header)


@pytest.mark.parametrize("payload", [{"x": object()}, {1: "int key"},
                                     [np.int64(3)]])
def test_json_refuses_other_types_and_keys(payload):
    """Other values raise as json.dumps does; keys must be str (json.dumps
    would turn an int key into a string)."""
    with pytest.raises(TypeError):
        to_json(payload)


# -- mode partitions: the arrays against the dict they replaced -------------

def dict_assignments(part) -> dict:
    """The assignments as the classifier built them before its arrays: a
    ModeAssignment a mode, made passive at its least hit |Omega| by the
    walk's hits, then made active by ``part``'s seeds and bridges in turn,
    each appending itself as evidence and lowering the mode's value."""
    spec, domain, conv = part.spec, part.domain, part.convention
    rule = search._dispatch(spec, domain, conv["closure"], conv["patterns"])
    X = search._table(spec, domain.truncation)
    _, hits = classify._walk(X, domain, rule, classify._n_rule(
        rule, conv["n_selection"]), conv["patterns"],
        conv["skip_equal_n_pairs"], part.omega_max)
    table, T1 = classify._passive_minima(domain, part.resonant_triads,
                                         hits), domain.truncation + 1
    least = {WaveVector(*divmod(key, T1)): v
             for key, v in enumerate(table.tolist()) if v == v}
    T, tri = domain.truncation, domain.shape == "triangular"
    assignments = {k: ModeAssignment(k, PASSIVE if k in least else NEUTRAL,
                                     least.get(k))
                   for k in (WaveVector(m, n) for m in range(1, T + 1)
                             for n in range(m if tri else 1, T + 1))}
    seeded = [(k, t, 0.0) for t in part.resonant_triads for k in t.members()]
    for k, why, v in seeded + [(s.bridge_wave, s, s.abs_discrepancy)
                               for s in part.bridges]:
        a = assignments[k]
        a.mode_class = ACTIVE
        a.evidence.append(why)
        if a.min_abs_discrepancy is None or v < a.min_abs_discrepancy:
            a.min_abs_discrepancy = v
    return assignments


def dict_counts(assignments) -> tuple:
    return tuple(sum(a.mode_class == c for a in assignments.values())
                 for c in (ACTIVE, PASSIVE, NEUTRAL))


def dict_records(part, assignments) -> str:
    """partition_to_records as it read the dict, through json.dumps."""
    modes = []
    for k in sorted(assignments):
        a = assignments[k]
        evidence = []
        for ev in a.evidence:
            if isinstance(ev, CascadeStep):
                evidence.append({
                    "kind": "bridge",
                    "triad": report._triad_brackets(ev.source_triad),
                    "pair": [[p.m, p.n] for p in ev.donor_pair],
                    "discrepancy": _num(ev.bridge_discrepancy),
                })
            else:
                evidence.append({"kind": "resonant_triad",
                                 "triad": report._triad_brackets(ev)})
        modes.append({
            "m": k.m, "n": k.n, "class": a.mode_class,
            "min_abs_discrepancy": a.min_abs_discrepancy,
            "evidence_triads": evidence,
        })
    active, passive, neutral = dict_counts(assignments)
    return json.dumps({
        "summary": {"active": active, "passive": passive, "neutral": neutral,
                    "omega_max": part.omega_max,
                    "convention": part.convention},
        "modes": modes,
    }, indent=2) + "\n"


def dict_csv(assignments) -> str:
    rows = ["m,n,class,min_abs_discrepancy\n"]
    for k in sorted(assignments):
        a = assignments[k]
        d = a.min_abs_discrepancy
        rows.append(",".join(map(str, (k.m, k.n, a.mode_class,
                                       "" if d is None else d))) + "\n")
    return "".join(rows)


def dict_table(part, assignments) -> str:
    active, passive, neutral = dict_counts(assignments)
    lines = [f"active={active} passive={passive} neutral={neutral} "
             f"(omega_max={part.omega_max})"]
    for cls in ("active", "passive", "neutral"):
        members = " ".join(str(k) for k in sorted(
            k for k, a in assignments.items() if a.mode_class == cls))
        lines.append(f"{cls:>8}: {members}")
    return "\n".join(lines) + "\n"


SPHERE = DispersionSpec("rossby_sphere")
PLANE = DispersionSpec("bve_plane", plane_form="squared")


@settings(max_examples=60)
@given(spec=st.sampled_from([SPHERE, PLANE, WATER]) | pruning_specs(),
       T=st.integers(1, 12), shape=st.sampled_from(["square", "triangular"]),
       closure=st.sampled_from(["auto", "zonal", "box", "both"]),
       patterns=st.sampled_from(["sum", "all"]),
       n_selection=st.sampled_from(classify.N_SELECTIONS),
       bridge_mode=st.sampled_from(["per_pair", "per_triad"]),
       skip=st.booleans(),
       omega_max=st.sampled_from([1e-3, 0.013, 0.03, 0.1, 1.0, 3.0]))
@example(spec=PLANE, T=8, shape="square", closure="box", patterns="all",
         n_selection="none", bridge_mode="per_pair", skip=True,
         omega_max=0.013)
@example(spec=SPHERE, T=10, shape="triangular", closure="zonal",
         patterns="sum", n_selection="parity", bridge_mode="per_triad",
         skip=True, omega_max=0.03)
@example(spec=PLANE, T=12, shape="square", closure="zonal", patterns="all",
         n_selection="both", bridge_mode="per_pair", skip=False,
         omega_max=0.1)
@example(spec=WATER, T=8, shape="square", closure="both", patterns="sum",
         n_selection="none", bridge_mode="per_pair", skip=True,
         omega_max=3.0)
def test_partition_arrays_match_the_dict_oracle(spec, T, shape, closure,
                                                patterns, n_selection,
                                                bridge_mode, skip, omega_max):
    """Every mode's class, least |Omega| (bits; NaN for None) and evidence
    (the same objects, in order, with multiplicity), the counts, the
    classes' modes and the JSON, CSV and table text equal the dict's."""
    domain = SpectralDomain(T, shape)
    try:
        part = classify_modes(spec, domain, omega_max, patterns, closure,
                              n_selection, bridge_mode, skip)
    except UsageError:  # a closure the spec, patterns or shape refuses
        assume(False)
    want = dict_assignments(part)
    assert list(part.assignments) == list(want)
    for (k, a), c, d in zip(want.items(), part.classes.tolist(),
                            part.min_abs_discrepancy.tolist()):
        assert part.mode_class(k) == CLASSES[c] == a.mode_class
        assert (None if a.min_abs_discrepancy is None
                else a.min_abs_discrepancy.hex()) == (None if d != d
                                                      else d.hex())
        got = part.evidence.get(k, [])
        assert [id(x) for x in got] == [id(x) for x in a.evidence]
        b = part.assignments[k]
        assert (b.mode, b.mode_class, b.min_abs_discrepancy) == (
            a.mode, a.mode_class, a.min_abs_discrepancy)
        assert [id(x) for x in b.evidence] == [id(x) for x in a.evidence]
    assert part.counts() == dict_counts(want)
    for cls in CLASSES:
        assert part.modes_in_class(cls) == sorted(
            k for k, a in want.items() if a.mode_class == cls)
    assert to_json(partition_to_records(part)) == dict_records(part, want)
    assert partition_to_csv(part) == dict_csv(want)
    assert joined(report.write_partition_table, part) == dict_table(part,
                                                                    want)


# -- CSV cells: none needs quoting ---------------------------------------------

def partition_csv_oracle(part) -> str:
    """csv.writer over each mode's row, as partition_to_csv wrote it before
    it joined its cells itself."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["m", "n", "class", "min_abs_discrepancy"])
    for k in sorted(part.assignments):
        a = part.assignments[k]
        w.writerow([k.m, k.n, a.mode_class,
                    "" if a.min_abs_discrepancy is None
                    else a.min_abs_discrepancy])
    return buf.getvalue()


@st.composite
def partitions(draw):
    """Partitions of up to six modes with float or no minimal
    discrepancies, the values the classifier makes."""
    domain = SpectralDomain(draw(st.integers(1, 3)), "triangular")
    cells = st.lists(st.tuples(st.integers(0, 2), st.none() | FLOATS),
                     min_size=len(domain), max_size=len(domain))
    codes, least = zip(*draw(cells))
    return ModePartition(WATER, domain, 0.3, np.array(codes), np.array(
        [math.nan if d is None else d for d in least]), {}, [], [], {})


@given(part=partitions())
def test_partition_csv_matches_csv_writer(part):
    assert partition_to_csv(part) == partition_csv_oracle(part)


def csv_line(cells) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


def cells_need_no_quoting(text: str) -> bool:
    """True when every line of ``text`` has the header's cell count, and
    reads back through csv.reader as exactly its split at commas, which
    csv.writer writes back as the line: no cell holds a comma, a quote or
    a line break."""
    lines = text.removesuffix("\n").split("\n")
    width = len(lines[0].split(","))
    try:
        return all(len(cells) == width
                   and list(csv.reader([line])) == [cells]
                   and csv_line(cells) == line + "\n"
                   for line in lines for cells in [line.split(",")])
    except csv.Error:  # a bare "\r" inside a line
        return False


@given(triads=TRIAD_LISTS, lists=pooled_triad_lists(1), part=partitions())
def test_no_csv_cell_needs_quoting(triads, lists, part):
    """So joining the str of each cell writes what csv.writer writes."""
    assert cells_need_no_quoting(triads_to_csv(triads))
    assert cells_need_no_quoting(triads_to_csv(lists[0]))
    assert cells_need_no_quoting(partition_to_csv(part))


@pytest.mark.parametrize("cell", [",", '"', "\r", "\n", "a,b", 'say "x"'])
def test_quoting_check_fails_on_a_cell_that_needs_quoting(cell):
    """The negative control: a class name or a signs cell that csv.writer
    would quote."""
    part = ModePartition(WATER, SpectralDomain(1), 0.3, np.array([0]),
                         np.array([0.5]), {}, [], [], {})
    text = partition_to_csv(part)
    assert cells_need_no_quoting(text)
    assert not cells_need_no_quoting(text.replace("active", cell))
    text = triads_to_csv([water_triad((1.0, 2.0, 3.0), 0.0, 0.1)])
    assert cells_need_no_quoting(text)
    assert not cells_need_no_quoting(text.replace("++-", cell))


# -- streaming: many chunks to stdout and --output ---------------------------

#: The gc75 inventory of 17,099 triads: 7.4 MB of JSON, 2.9 MB of CSV.
INVENTORY_ARGV = ["find-triads", "--liquid", "water", "--T", "20",
                  "--d-min", "0.1"]

#: Characters of the largest chunk a writer may hand on: CHUNK_PIECES
#: pieces are about 112,000 characters of this inventory's JSON and
#: 86,000 of its CSV.
CHUNK_BOUND = 128 * 1024


@pytest.fixture(scope="module")
def inventory():
    return find_max_discrepancy_triads(WATER, SpectralDomain(20, "square"),
                                       0.1)


@pytest.fixture(scope="module")
def inventory_columns():
    """The inventory as the CLI's search gives it: columns."""
    return search._sorted_search(WATER, SpectralDomain(20), d_min=0.1)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_streamed_inventory_matches_the_oracles(capsys, tmp_path, inventory,
                                                fmt):
    """Through many chunk boundaries, stdout and --output both carry the
    header and then the text of to_json / triads_to_csv, which equals
    json.dumps / csv.writer of the records."""
    path = tmp_path / "out"
    assert cli.main([*INVENTORY_ARGV, "--format", fmt,
                     "--output", str(path)]) == 0
    assert cli.main([*INVENTORY_ARGV, "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert path.read_text() == out
    if fmt == "json":
        header = json.loads(out)["config"]
        assert out == to_json(inventory, header)
        assert out == json_oracle(inventory, header)
    else:
        lines = out.split("\n")
        header = [line for line in lines if line.startswith("# ")]
        body = "\n".join(lines[len(header):])
        assert header and body.startswith("m1,n1,")
        assert body == triads_to_csv(inventory) == csv_oracle(inventory)
    assert len(out) > 8 * CHUNK_BOUND


class RecordingFile:
    """A file object that keeps only the size of each write."""

    def __init__(self):
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return len(text)


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_writers_hold_a_chunk_not_the_output(monkeypatch, tmp_path,
                                             inventory_columns, fmt):
    """The CLI writes a prebuilt inventory in several bounded writes, and
    its heap peak while rendering and writing stays under a quarter of the
    output; a writer that built the whole text first would hold more than
    the output."""
    monkeypatch.setattr(cli, "_sorted_search",
                        lambda *args, **kwargs: inventory_columns)
    stdout = RecordingFile()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert cli.main([*INVENTORY_ARGV, "--format", fmt]) == 0
    assert len(stdout.sizes) > 1
    assert max(stdout.sizes) <= CHUNK_BOUND
    path = tmp_path / "out"
    tracemalloc.start()
    try:
        assert cli.main([*INVENTORY_ARGV, "--format", fmt,
                         "--output", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size == sum(stdout.sizes)
    assert peak < size / 4


def test_classify_csv_reaches_write_in_chunks(monkeypatch):
    """The CLI CSV of a 4,096-mode classification reaches ``write`` as
    bounded chunks of rows, not as one string."""
    texts = []
    monkeypatch.setattr(sys, "stdout", type("Out", (), {
        "write": lambda self, text: texts.append(text) or len(text)})())
    assert cli.main(["classify", "--liquid", "water", "--T", "64",
                     "--omega-max", "1", "--format", "csv"]) == 0
    body = [t for t in texts if not t.startswith(("# ", "m,n,class"))]
    assert len(body) >= 8
    assert max(map(len, body)) <= CHUNK_BOUND
    assert sum(t.count("\n") for t in body) == 4096


def test_large_inventory_renders_under_a_bounded_peak():
    """The water inventory at T=30 (90,169 rows) renders in CSV and in
    JSON with a heap peak under 1.2 MB: its modes are marked a slice of
    rows at a time, and the render holds a batch of chunks, not key
    arrays over every row (1.445 MB)."""
    columns = search._sorted_search(WATER, SpectralDomain(30), d_min=0.1)
    assert len(columns) == 90169
    for write in (report.write_triads_csv, report.write_json):
        write(lambda text: None, columns)
        tracemalloc.start()
        try:
            write(lambda text: None, columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2e6, (write.__name__, peak)


# -- column chunks against the %-template rows ------------------------------

#: The %-templates of a CSV row and of a JSON record of float columns that
#: ``report._rows`` filled before it joined rows from per-mode pieces.
TEMPLATE_CSV = "%d,%d,%d,%d,%d,%d,%s,%s,%s,%s,%s,%s,%r,%r,%s\n"


def template_json(level: int) -> str:
    fields = [f'"{k}": %d' for k in ("m1", "n1", "m2", "n2", "m3", "n3")]
    fields += [f'"{k}": %s' for k in ("omega1", "omega2", "omega3", "hz1",
                                      "hz2", "hz3")]
    fields += [f'"{k}": %r' for k in ("discrepancy", "d_ratio")]
    fields += ['"signs": %s', '"resonance": "%s"']
    inner = "\n" + "  " * (level + 1)
    close = "\n" + "  " * level + "}"
    return "{" + ",".join(inner + f for f in fields) + close


def template_rows(triads, fmt, level=0, rational=False):
    """The rows of each chunk of ``report._rows``: CSV rows and JSON
    records of float columns as one %-template each fills them, table
    lines as ``triad_table_line`` writes them, and the rows of any other
    chunk through each triad's record."""
    columns = isinstance(triads, TriadColumns) and len(triads)
    modes = triads.modes() if columns else None
    plain = columns and triads.table.dtype == np.float64 and fmt != "table"
    if plain:
        _, w, index = modes
        text = [np.fromiter(map(float.__repr__, x), object, len(x))
                for x in (w.tolist(), (w / TWO_PI).tolist())]
    template = TEMPLATE_CSV if fmt == "csv" else template_json(level)
    size = report.CHUNK_PIECES // 2 if fmt == "json" else report.CHUNK_PIECES
    for lo in range(0, len(triads), size):
        c = triads[lo:lo + size]
        at = [index(m, n) for m, n in c.members()] if plain else ()
        if fmt == "table":
            yield [triad_table_line(x) + "\n" for x in (
                _triads(c, modes) if columns else c)]
            continue
        if not plain or not all(np.isfinite(x).all() for x in (
                *(w[i] for i in at), c.discrepancy, c.d_ratio)):
            yield [report._triad_text(x, fmt, level, rational) for x in (
                _triads(c, modes) if columns else c)]
            continue
        ints = [x.tolist() for pair in c.members() for x in pair]
        freqs = [x[i].tolist() for x in text for i in at]
        signs = map((report._PATTERN_JSON if fmt == "json"
                     else report._PATTERN_TEXT).__getitem__,
                    c.pattern.tolist())
        cells = [*ints, *freqs, c.discrepancy.tolist(), c.d_ratio.tolist(),
                 signs]
        if fmt == "json":
            cells.append(map(report._LABELS.__getitem__,
                             (c.d_ratio <= NUMERIC_EXACT_D).tolist()))
        yield list(map(template.__mod__, zip(*cells)))


@st.composite
def searched_columns(draw):
    """The columns of a float search (its stable sort puts transposed twins
    next to each other), or of the sphere's exact search."""
    T, patterns = draw(st.integers(1, 12)), draw(st.sampled_from(["sum",
                                                                  "all"]))
    if draw(st.booleans()):
        return search._sorted_search(
            DispersionSpec("rossby_sphere"), SpectralDomain(T, "triangular"),
            patterns, d_max=draw(st.sampled_from([1e-9, 1e-2, math.inf])))
    spec = draw(pruning_specs())
    if draw(st.booleans()):
        return search._sorted_search(spec, SpectralDomain(T), patterns,
                                     d_min=draw(st.sampled_from([1e-3, 0.1])))
    return search._sorted_search(spec, SpectralDomain(T), patterns,
                                 d_max=draw(st.sampled_from([1e-3, math.inf])))


#: Residuals and ratios that print differently from their neighbours: both
#: zeros, subnormals, and each side of float repr's switches to exponent
#: form (below 1e-4 and from 1e16 on).
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
               1e-4, math.nextafter(1e-4, 0.0), -1e-4, 1e16,
               math.nextafter(1e16, 0.0), -1e16, NUMERIC_EXACT_D,
               math.nextafter(NUMERIC_EXACT_D, 1.0), 1.7976931348623157e308]
CELLS = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False,
                                                 allow_infinity=False)
ODD = st.sampled_from([math.inf, -math.inf, math.nan])


@st.composite
def crafted_columns(draw):
    """Columns on a drawn float table whose residuals, ratios and patterns
    each come in runs of equal values, their edges drawn apart; zeros of
    both signs are frequent, so that a row can equal its neighbour as a
    float but not in bits.  Some tables and residuals hold inf or NaN."""
    M, N, k = (draw(st.integers(*x)) for x in ((2, 6), (1, 5), (1, 14)))

    def runs(values):
        out = []
        while len(out) < k:
            out += [draw(values)] * draw(st.integers(1, 4))
        return np.array(out[:k])

    d, r = (runs(st.sampled_from([0.0, -0.0]) | CELLS) for _ in "dr")
    if draw(st.booleans()):
        d[draw(st.integers(0, k - 1))] = draw(ODD)
    m1, m2, n1, n2, n3 = (np.array(draw(st.lists(
        st.integers(1, top), min_size=k, max_size=k))) for top in (
            M // 2, M // 2, N, N, N))
    table = draw(st.lists(CELLS | ODD if draw(st.booleans()) else CELLS,
                          min_size=(M + 1) * (N + 1),
                          max_size=(M + 1) * (N + 1)))
    return TriadColumns(m1, n1, m2, n2, n3, d, runs(st.integers(0, 2)), r,
                        np.array(table).reshape(M + 1, N + 1))


#: Columns on a float table with brackets of 21 to 27 characters (a table
#: pads them to 24), whose d_ratios are subnormal or huge.
WIDE_BRACKETS = TriadColumns(
    np.array([1, 10, 10, 100, 100]), np.array([100, 100, 100, 100, 100]),
    np.array([1, 10, 10, 10, 100]), np.array([100, 100, 100, 100, 100]),
    np.array([200, 200, 201, 200, 200]), np.array([0.5, 0.5, -1.0, 2.0, 0.0]),
    np.array([0, 0, 1, 2, 0]),
    np.array([5e-324, 5e-324, 1.7976931348623157e308,
              2.2250738585072014e-308 / 3, 0.0]),
    np.linspace(1.0, 2.0, 201 * 202).reshape(201, 202))


@given(columns=searched_columns() | crafted_columns(),
       fmt=st.sampled_from(["csv", "json", "table"]),
       level=st.integers(0, 3), chunk=st.sampled_from([1, 3, None]))
@example(columns=TriadColumns(*[np.array([1, 1, 1])] * 5, np.array(
    [0.0, -0.0, -0.0]), np.array([0, 0, 0]), np.array([0.0, 0.0, -0.0]),
    np.full((3, 2), 2.5)), fmt="csv", level=0, chunk=3)
@example(columns=search._sorted_search(gc_spec(75), SpectralDomain(8),
                                       d_min=0.1),
         fmt="json", level=2, chunk=3)
@example(columns=WIDE_BRACKETS, fmt="table", level=0, chunk=1)
@example(columns=WIDE_BRACKETS, fmt="table", level=0, chunk=None)
@example(columns=WIDE_BRACKETS, fmt="json", level=1, chunk=3)
def test_rows_match_the_template_rows(columns, fmt, level, chunk):
    """Each chunk text of ``report._rows`` is, bit for bit, its reference
    rows (:func:`template_rows`) joined with the writers' separators, on
    searched and crafted columns, in every format and at each JSON level,
    with chunks of 1 and 3 rows, so that chunk and batch edges split runs
    of equal values, and of the default size."""
    rational = columns.discrepancy.dtype == object
    default = report.CHUNK_PIECES
    if chunk is not None:
        report.CHUNK_PIECES = chunk * (2 if fmt == "json" else 1)
    sep = ",\n" + "  " * level if fmt == "json" else ""
    try:
        assert list(report._rows(columns, fmt, level, rational)) == [
            sep.join(rows) for rows in template_rows(columns, fmt, level,
                                                     rational)]
    finally:
        report.CHUNK_PIECES = default
