"""Serialisation of triad lists, mode partitions, bounds, plans and sweeps
to JSON, CSV and fixed-width tables.

Column order for triad tables is fixed:
m1,n1,m2,n2,m3,n3,omega1,omega2,omega3,hz1,hz2,hz3,discrepancy,d_ratio,signs
Exact rationals serialise as "p/q" strings; a float approximation is
appended in *_float fields.

``write_json`` and ``write_triads_csv`` are the chunk writers: they hand
their text to a ``write`` callable every ``CHUNK_PIECES`` pieces (about
64-128 KB of triad text), so the CLI streams an inventory to its output
and never holds the whole text.  ``to_json`` and ``triads_to_csv`` return
the join of the same chunks.

``write_json`` writes the bytes of ``json.dumps(payload, indent=2)``
itself, because with ``indent`` set CPython runs its pure-Python encoder.
Payloads are dicts with str keys, lists and tuples of str, int, float,
bool, None, ``Fraction`` (written "p/q") and ``Triad``.  A triad is
written as its ``triad_to_record`` record: a float triad with finite
values fills one %-template per indent level, any other triad is written
through its record.  So a JSON run builds no record dict per float triad.

A CSV row is the ``str`` of each cell joined by commas, which is what
``csv.writer`` writes: no cell can need quoting, since each is an int, a
float, "p/q" text, a sign string over "+" and "-", a fixed class name or
empty.  A float triad's row fills one %-template; any other row joins the
cells of ``_triad_row``.

Thousands of triads draw their frequencies from a few hundred modes, so
``write_json`` and ``write_triads_csv`` format each distinct float omega
and its hz once per call (``_FreqText``); a float row formats only its
discrepancy and d_ratio.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product
from json.encoder import encode_basestring_ascii as _quote
from math import copysign

from .classify import CascadeStep, ModePartition
from .dispersion import TWO_PI, to_hz
from .experiment import ExperimentPlan, GeometrySweepReport
from .search import NUMERIC_EXACT_D, BoundReport, Triad

TRIAD_COLUMNS = ["m1", "n1", "m2", "n2", "m3", "n3",
                 "omega1", "omega2", "omega3", "hz1", "hz2", "hz3",
                 "discrepancy", "d_ratio", "signs"]
RATIONAL_EXTRA_COLUMNS = ["omega1_float", "omega2_float", "omega3_float",
                          "discrepancy_float"]

#: Pieces a chunk writer gathers before it hands them to ``write`` as one
#: chunk: CSV rows, or the separators and elements of JSON lists, in
#: which a float triad is one piece.
CHUNK_PIECES = 512


def _signs_str(signs) -> str:
    return "".join("+" if s > 0 else "-" for s in signs)


#: Text of each sign pattern's "signs" value.
_SIGNS_TEXT = {s: _signs_str(s) for s in product((1, -1), repeat=3)}


def _num(value):
    """JSON-ready numeric: Fractions as 'p/q' strings, floats unchanged.
    A Python float is let through before the isinstance test, an ABCMeta
    check."""
    if type(value) is float or not isinstance(value, Fraction):
        return value
    return f"{value.numerator}/{value.denominator}"


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


class _FreqText(dict):
    """Per-call memo of frequency text.  ``(w, copysign(1.0, w))`` of a
    Python float w maps to ``(float.__repr__(w), float.__repr__(w /
    TWO_PI))``: the text of omega and of its hz as ``to_hz`` computes it.
    The sign in the key keeps -0.0 apart from 0.0, which compare equal."""

    def __missing__(self, key):
        w = key[0]
        text = self[key] = (float.__repr__(w), float.__repr__(w / TWO_PI))
        return text


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


#: %-template of a float triad's CSV row under TRIAD_COLUMNS: omega1-3
#: and hz1-3 take their text (``%s``) from a ``_FreqText`` memo, and
#: ``%r`` of a Python float is its ``str``.
_CSV_TEMPLATE = "%d,%d,%d,%d,%d,%d,%s,%s,%s,%s,%s,%s,%r,%r,%s"


def write_triads_csv(write, triads) -> None:
    """Write the CSV text of ``triads`` to ``write`` in chunks of
    CHUNK_PIECES rows: one row per triad under TRIAD_COLUMNS, and the
    RATIONAL_EXTRA_COLUMNS when any triad carries an exact rational
    discrepancy.

    A triad whose frequencies, discrepancy and d_ratio are Python floats
    and whose signs are a sign pattern fills ``_CSV_TEMPLATE``; any other
    row (rationals, numpy scalars) joins the ``str`` of its cells."""
    if not isinstance(triads, list):  # rows are read twice
        triads = list(triads)
    rational = any(type(t.discrepancy) is not float
                   and isinstance(t.discrepancy, Fraction) for t in triads)
    columns = TRIAD_COLUMNS + (RATIONAL_EXTRA_COLUMNS if rational else [])
    template = _CSV_TEMPLATE + (",,,,\n" if rational else "\n")
    text = _FreqText()
    out = [",".join(columns) + "\n"]
    for t in triads:
        w1, w2, w3 = t.omegas
        d, r = t.discrepancy, t.d_ratio
        signs = _SIGNS_TEXT.get(t.signs)
        if (type(w1) is float and type(w2) is float and type(w3) is float
                and type(d) is float and type(r) is float
                and signs is not None):
            k1, k2, k3 = t.k1, t.k2, t.k3
            (o1, h1), (o2, h2), (o3, h3) = (text[w1, copysign(1.0, w1)],
                                            text[w2, copysign(1.0, w2)],
                                            text[w3, copysign(1.0, w3)])
            out.append(template % (k1.m, k1.n, k2.m, k2.n, k3.m, k3.n,
                                   o1, o2, o3, h1, h2, h3, d, r, signs))
        else:
            out.append(",".join(map(str, _triad_row(t, rational))) + "\n")
        if len(out) >= CHUNK_PIECES:
            write("".join(out))
            out.clear()
    write("".join(out))


def triads_to_csv(triads) -> str:
    """The text ``write_triads_csv`` writes, as one string."""
    chunks = []
    write_triads_csv(chunks.append, triads)
    return "".join(chunks)


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
    rows = ["m,n,class,min_abs_discrepancy\n"]
    for k in sorted(part.assignments):
        a = part.assignments[k]
        d = a.min_abs_discrepancy
        rows.append(",".join(map(str, (k.m, k.n, a.mode_class,
                                       "" if d is None else d))) + "\n")
    return "".join(rows)


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
        "type_a": plan.type_a,
        "type_b": plan.type_b,
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
            "triads": c.triads,
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


# -- JSON -------------------------------------------------------------------

#: JSON text of each sign pattern's "signs" value.
_SIGNS_JSON = {s: _quote(x) for s, x in _SIGNS_TEXT.items()}


def _float_json(x: float) -> str:
    """A float as json.dumps writes it.  ``float.__repr__``, not ``repr``:
    numpy float scalars repr differently."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


@lru_cache(maxsize=None)
def _triad_template(level: int) -> str:
    """%-template of a float triad's record whose braces are indented at
    ``level``: the keys of ``triad_to_record`` in its order.  omega1-3 and
    hz1-3 take their text (``%s``) from a ``_FreqText`` memo; discrepancy
    and d_ratio are formatted here (``%r``)."""
    fields = [f'"{k}": %d' for k in ("m1", "n1", "m2", "n2", "m3", "n3")]
    fields += [f'"{k}": %s' for k in ("omega1", "omega2", "omega3", "hz1",
                                      "hz2", "hz3")]
    fields += [f'"{k}": %r' for k in ("discrepancy", "d_ratio")]
    fields += ['"signs": %s', '"resonance": "%s"']
    inner = "\n" + "  " * (level + 1)
    close = "\n" + "  " * level + "}"
    return "{" + ",".join(inner + f for f in fields) + close


def _triad_json(t: Triad, level: int, out: list, text: _FreqText,
                write) -> None:
    """Append to ``out`` the JSON text of ``triad_to_record(t)`` at
    ``level``.

    A triad whose frequencies, discrepancy and d_ratio are finite Python
    floats fills the template: ``float.__repr__`` of such a float is its
    JSON text, read from ``text`` for the frequencies and their hz.  Any
    other triad (rational, non-finite, numpy scalars) is written through
    its record."""
    w1, w2, w3 = t.omegas
    d, r = t.discrepancy, t.d_ratio
    signs = _SIGNS_JSON.get(t.signs)
    # x * 0.0 is nan for an infinite or nan x; a sum that overflows only
    # sends a finite triad down the record path.
    if (type(w1) is float and type(w2) is float and type(w3) is float
            and type(d) is float and type(r) is float and signs is not None
            and (w1 + w2 + w3 + d + r) * 0.0 == 0.0):
        k1, k2, k3 = t.k1, t.k2, t.k3
        (o1, h1), (o2, h2), (o3, h3) = (text[w1, copysign(1.0, w1)],
                                        text[w2, copysign(1.0, w2)],
                                        text[w3, copysign(1.0, w3)])
        # The label as Triad.resonance_label gives it for a float
        # discrepancy.
        out.append(_triad_template(level) % (
            k1.m, k1.n, k2.m, k2.n, k3.m, k3.n, o1, o2, o3, h1, h2, h3,
            d, r, signs,
            "numerically_exact" if r <= NUMERIC_EXACT_D else "near"))
    else:
        _write(triad_to_record(t), level, out, text, write)


def _write(v, level: int, out: list, text: _FreqText, write) -> None:
    """Append to ``out`` the ``json.dumps(v, indent=2)`` text of ``v``,
    whose closing bracket is indented at ``level``; ``text`` is the call's
    frequency memo.  Between the elements of a list, ``out`` is handed to
    ``write`` as one chunk and emptied once it holds CHUNK_PIECES
    pieces."""
    if isinstance(v, Triad):
        _triad_json(v, level, out, text, write)
    elif isinstance(v, str):
        out.append(_quote(v))
    elif v is None:
        out.append("null")
    elif v is True:
        out.append("true")
    elif v is False:
        out.append("false")
    elif isinstance(v, int):
        out.append(int.__repr__(v))
    elif isinstance(v, float):
        out.append(_float_json(v))
    elif isinstance(v, (list, tuple)):
        if not v:
            out.append("[]")
            return
        inner = "\n" + "  " * (level + 1)
        sep = "[" + inner
        for x in v:
            out.append(sep)
            _write(x, level + 1, out, text, write)
            sep = "," + inner
            if len(out) >= CHUNK_PIECES:
                write("".join(out))
                out.clear()
        out.append("\n" + "  " * level + "]")
    elif isinstance(v, dict):
        if not v:
            out.append("{}")
            return
        inner = "\n" + "  " * (level + 1)
        sep = "{" + inner
        for k, x in v.items():
            out.append(sep + _quote(k) + ": ")
            _write(x, level + 1, out, text, write)
            sep = "," + inner
        out.append("\n" + "  " * level + "}")
    elif isinstance(v, Fraction):
        out.append(_quote(_num(v)))
    else:
        raise TypeError(f"Object of type {type(v).__name__} "
                        "is not JSON serializable")


def write_json(write, payload, header: dict | None = None) -> None:
    """Write the deterministic JSON rendering of ``payload`` to ``write``
    in chunks: byte for byte ``json.dumps(payload, indent=2)`` with
    ``Fraction`` and ``Triad`` written as in their records; the run header
    (resolved config) is embedded unless suppressed.  One frequency memo
    serves every triad in the payload."""
    if header is not None:
        payload = {"config": header, "result": payload}
    out = []
    _write(payload, 0, out, _FreqText(), write)
    out.append("\n")
    write("".join(out))


def to_json(payload, header: dict | None = None) -> str:
    """The text ``write_json`` writes, as one string."""
    chunks = []
    write_json(chunks.append, payload, header)
    return "".join(chunks)
