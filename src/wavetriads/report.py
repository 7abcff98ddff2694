"""Serialisation of triad lists, mode partitions, bounds, plans and sweeps
to JSON records, CSV and fixed-width tables.

Column order for triad tables is fixed:
m1,n1,m2,n2,m3,n3,omega1,omega2,omega3,hz1,hz2,hz3,discrepancy,d_ratio,signs
Exact rationals serialise as "p/q" strings; a float approximation is
appended in *_float fields.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from .classify import CascadeStep, ModePartition
from .dispersion import to_hz
from .experiment import ExperimentPlan, GeometrySweepReport
from .search import BoundReport, Triad

TRIAD_COLUMNS = ["m1", "n1", "m2", "n2", "m3", "n3",
                 "omega1", "omega2", "omega3", "hz1", "hz2", "hz3",
                 "discrepancy", "d_ratio", "signs"]
RATIONAL_EXTRA_COLUMNS = ["omega1_float", "omega2_float", "omega3_float",
                          "discrepancy_float"]


def _signs_str(signs) -> str:
    return "".join("+" if s > 0 else "-" for s in signs)


def _num(value):
    """JSON-ready numeric: Fractions as 'p/q' strings, floats unchanged."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return value


def triad_to_record(t: Triad) -> dict:
    rec = {
        "m1": t.k1.m, "n1": t.k1.n,
        "m2": t.k2.m, "n2": t.k2.n,
        "m3": t.k3.m, "n3": t.k3.n,
        "omega1": _num(t.omegas[0]),
        "omega2": _num(t.omegas[1]),
        "omega3": _num(t.omegas[2]),
        "hz1": to_hz(t.omegas[0]),
        "hz2": to_hz(t.omegas[1]),
        "hz3": to_hz(t.omegas[2]),
        "discrepancy": _num(t.discrepancy),
        "d_ratio": t.d_ratio,
        "signs": _signs_str(t.signs),
        "resonance": t.resonance_label,
    }
    if isinstance(t.discrepancy, Fraction):
        rec["omega1_float"] = float(t.omegas[0])
        rec["omega2_float"] = float(t.omegas[1])
        rec["omega3_float"] = float(t.omegas[2])
        rec["discrepancy_float"] = float(t.discrepancy)
    return rec


def triads_to_records(triads) -> list:
    return [triad_to_record(t) for t in triads]


def _triad_row(t: Triad, rational: bool) -> list:
    """CSV cells of one triad: the values of its record under
    TRIAD_COLUMNS, then under RATIONAL_EXTRA_COLUMNS when ``rational``
    (left empty for a float triad in a rational list)."""
    w1, w2, w3 = t.omegas
    row = [t.k1.m, t.k1.n, t.k2.m, t.k2.n, t.k3.m, t.k3.n,
           _num(w1), _num(w2), _num(w3), to_hz(w1), to_hz(w2), to_hz(w3),
           _num(t.discrepancy), t.d_ratio, _signs_str(t.signs)]
    if rational:
        if isinstance(t.discrepancy, Fraction):
            row += [float(w1), float(w2), float(w3), float(t.discrepancy)]
        else:
            row += [""] * len(RATIONAL_EXTRA_COLUMNS)
    return row


def triads_to_csv(triads) -> str:
    """One row per triad under TRIAD_COLUMNS; the RATIONAL_EXTRA_COLUMNS
    are added when any triad carries an exact rational discrepancy."""
    triads = list(triads)
    rational = any(isinstance(t.discrepancy, Fraction) for t in triads)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(TRIAD_COLUMNS + (RATIONAL_EXTRA_COLUMNS if rational else []))
    w.writerows(_triad_row(t, rational) for t in triads)
    return buf.getvalue()


def _triad_brackets(t: Triad) -> str:
    return f"[{t.k1.m},{t.k1.n}][{t.k2.m},{t.k2.n}][{t.k3.m},{t.k3.n}]"


def triad_table_line(t: Triad) -> str:
    hz = ", ".join(f"{to_hz(w):.4f}" for w in t.omegas)
    return f"{_triad_brackets(t):<24} ({hz});  d={t.d_ratio:.3e}  {_signs_str(t.signs)}"


def triads_to_table(triads) -> str:
    lines = [triad_table_line(t) for t in triads]
    return "\n".join(lines) + ("\n" if lines else "")


# -- mode partitions --------------------------------------------------------

def partition_to_records(part: ModePartition) -> dict:
    modes = []
    for k in sorted(part.assignments):
        a = part.assignments[k]
        evidence = []
        for ev in a.evidence:
            if isinstance(ev, CascadeStep):
                evidence.append({
                    "kind": "bridge",
                    "triad": _triad_brackets(ev.source_triad),
                    "pair": [[p.m, p.n] for p in ev.donor_pair],
                    "discrepancy": _num(ev.bridge_discrepancy),
                })
            else:
                evidence.append({"kind": "resonant_triad",
                                 "triad": _triad_brackets(ev)})
        modes.append({
            "m": k.m, "n": k.n, "class": a.mode_class,
            "min_abs_discrepancy": a.min_abs_discrepancy,
            "evidence_triads": evidence,
        })
    active, passive, neutral = part.counts()
    return {
        "summary": {"active": active, "passive": passive, "neutral": neutral,
                    "omega_max": part.omega_max,
                    "convention": part.convention},
        "modes": modes,
    }


def partition_to_csv(part: ModePartition) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["m", "n", "class", "min_abs_discrepancy"])
    for k in sorted(part.assignments):
        a = part.assignments[k]
        w.writerow([k.m, k.n, a.mode_class,
                    "" if a.min_abs_discrepancy is None
                    else a.min_abs_discrepancy])
    return buf.getvalue()


def partition_to_table(part: ModePartition) -> str:
    active, passive, neutral = part.counts()
    lines = [f"active={active} passive={passive} neutral={neutral} "
             f"(omega_max={part.omega_max})"]
    for cls in ("active", "passive", "neutral"):
        members = " ".join(str(k) for k in part.modes_in_class(cls))
        lines.append(f"{cls:>8}: {members}")
    return "\n".join(lines) + "\n"


# -- bounds ------------------------------------------------------------------

def bound_to_record(rep: BoundReport) -> dict:
    out = {}
    if rep.apriori is not None:
        out["apriori"] = {"method": rep.apriori.method,
                          "value": _num(rep.apriori.value),
                          "value_float": float(rep.apriori.value)}
    if rep.finite_min is not None:
        out["finite_domain_min"] = {
            "method": rep.finite_min.method,
            "value": _num(rep.finite_min.value),
            "value_float": float(rep.finite_min.value),
            "witness": triad_to_record(rep.finite_min.witness),
        }
    if rep.note:
        out["note"] = rep.note
    return out


# -- plans and sweeps --------------------------------------------------------

def plan_to_record(plan: ExperimentPlan) -> dict:
    return {
        "d_max": plan.d_max, "d_min": plan.d_min, "epsilon": plan.epsilon,
        "units": "frequencies Hz; amplitudes cm (c.g.s.)",
        "type_a": triads_to_records(plan.type_a),
        "type_b": triads_to_records(plan.type_b),
        "amplitudes": [{"m": k.m, "n": k.n, "amplitude_cm": a}
                       for k, a in sorted(plan.amplitudes.items())],
        "notes": plan.notes,
    }


def plan_to_table(plan: ExperimentPlan) -> str:
    lines = [f"Type A (d_ratio <= {plan.d_max}):"]
    lines += ["  " + triad_table_line(t) for t in plan.type_a] or ["  (none)"]
    lines.append(f"Type B (d_ratio >= {plan.d_min}):")
    lines += ["  " + triad_table_line(t) for t in plan.type_b] or ["  (none)"]
    lines.append(f"Amplitudes (cm, eps={plan.epsilon}):")
    for k, a in sorted(plan.amplitudes.items()):
        lines.append(f"  {str(k):<9} {a:.6f}")
    lines.append(plan.notes)
    return "\n".join(lines) + "\n"


def sweep_to_record(rep: GeometrySweepReport) -> dict:
    return {
        "d_max": rep.d_max, "omega_max": rep.omega_max,
        "cells": [{
            "lx": c.lx, "ly": c.ly,
            "triad_count": c.triad_count,
            "resonance_free": c.resonance_free,
            "counts": {"active": c.counts[0], "passive": c.counts[1],
                       "neutral": c.counts[2]},
            "triads": triads_to_records(c.triads),
        } for c in rep.cells],
    }


def sweep_to_table(rep: GeometrySweepReport) -> str:
    lines = [f"{'Lx':>6} {'Ly':>6} {'triads':>7} {'free':>5} "
             f"{'active':>7} {'passive':>8} {'neutral':>8}"]
    for c in rep.cells:
        lines.append(f"{c.lx:>6g} {c.ly:>6g} {c.triad_count:>7d} "
                     f"{str(c.resonance_free):>5} {c.counts[0]:>7d} "
                     f"{c.counts[1]:>8d} {c.counts[2]:>8d}")
    return "\n".join(lines) + "\n"


def to_json(payload, header: dict | None = None) -> str:
    """Deterministic JSON rendering; the run header (resolved config) is
    embedded unless suppressed."""
    if header is not None:
        payload = {"config": header, "result": payload}
    return json.dumps(payload, indent=2, sort_keys=False,
                      default=_num) + "\n"
