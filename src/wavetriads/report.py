"""Serialisation of triad lists, mode partitions, bounds, plans and sweeps
to JSON, CSV and fixed-width tables.

Column order for triad tables is fixed:
m1,n1,m2,n2,m3,n3,omega1,omega2,omega3,hz1,hz2,hz3,discrepancy,d_ratio,signs
Exact rationals serialise as "p/q" strings; a float approximation is
appended in *_float fields.

``write_json`` and ``write_triads_csv`` are the chunk writers: they hand
their text to a ``write`` callable chunk by chunk (about 64-128 KB of
triad text), so the CLI streams an inventory to its output and never
holds the whole text.  ``to_json`` and ``triads_to_csv`` return the join
of the same chunks.

``write_json`` writes the bytes of ``json.dumps(payload, indent=2)``
itself, because with ``indent`` set CPython runs its pure-Python encoder.
Payloads are dicts with str keys, lists and tuples of str, int, float,
bool, None, ``Fraction`` (written "p/q"), ``Triad`` (written as its
``triad_to_record`` record) and ``TriadColumns`` (as the list of its
rows' records).

A CSV row is the ``str`` of each cell joined by commas, which is what
``csv.writer`` writes: no cell can need quoting, since each is an int, a
float, "p/q" text, a sign string over "+" and "-", a fixed class name or
empty.

One renderer (:func:`_rows`) gives the JSON, CSV and table rows of a
chunk of triads.  The CLI's searches and plans hand it columns
(:class:`.triad.TriadColumns`), which hold no frequencies: they read each
distinct mode's from their table once, since thousands of triads draw
their frequencies from a few hundred modes.  A chunk of finite floats
joins its rows from per-mode text; table lines fill a %-template.
Other chunks of columns (rationals, inf, NaN) are made into ``Triad``s
on those per-mode frequencies, one object a mode, and these, like lists
of ``Triad`` objects, are written through each triad's record.
"""

from __future__ import annotations

import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .classify import CascadeStep, ModePartition
from .dispersion import TWO_PI, to_hz
from .experiment import ExperimentPlan, GeometrySweepReport
from .search import NUMERIC_EXACT_D, SIGN_PATTERNS, BoundReport, Triad
from .triad import TriadColumns, _triads

TRIAD_COLUMNS = ["m1", "n1", "m2", "n2", "m3", "n3",
                 "omega1", "omega2", "omega3", "hz1", "hz2", "hz3",
                 "discrepancy", "d_ratio", "signs"]
RATIONAL_EXTRA_COLUMNS = ["omega1_float", "omega2_float", "omega3_float",
                          "discrepancy_float"]

#: Pieces a chunk writer gathers before it hands them to ``write`` as one
#: chunk: CSV rows, or the separators and elements of JSON lists; a chunk
#: of columns is CHUNK_PIECES rows (half as many in JSON).
CHUNK_PIECES = 512


def _signs_str(signs) -> str:
    return "".join("+" if s > 0 else "-" for s in signs)


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


def _triad_row(t: Triad, rational: bool) -> list:
    """CSV cells of one triad: the values of its record under
    TRIAD_COLUMNS, then under RATIONAL_EXTRA_COLUMNS when ``rational``
    (left empty for a float triad in a rational list)."""
    rec = triad_to_record(t)
    return [rec.get(c, "") for c in TRIAD_COLUMNS
            + (RATIONAL_EXTRA_COLUMNS if rational else [])]


#: Text (CSV, tables) and JSON text of each sign pattern by its index in
#: SIGN_PATTERNS, and a float triad's label by d_ratio <= NUMERIC_EXACT_D.
_PATTERN_TEXT = tuple(_signs_str(s) for s in SIGN_PATTERNS)
_PATTERN_JSON = tuple(map(_quote, _PATTERN_TEXT))
_LABELS = ("near", "numerically_exact")

#: %-template of a ``triad_table_line`` of columns.
_TABLE_TEMPLATE = "%-24s (%s, %s, %s);  d=%.3e  %s"


def _fields(fmt: str, level: int):
    """The text before each field of a float triad's CSV row, or of its
    JSON record with braces indented at ``level``, and the row's text from
    the signs on, by sign pattern + 3 * (numerically exact)."""
    if fmt == "csv":
        return dict.fromkeys(TRIAD_COLUMNS[1:], ",") | {"m1": ""}, [
            f",{s}\n" for s in _PATTERN_TEXT] * 2
    inner = "\n" + "  " * (level + 1)
    pre = {k: f",{inner}{_quote(k)}: " for k in TRIAD_COLUMNS + ["resonance"]}
    pre["m1"] = "{" + pre["m1"][1:]
    return pre, [f"{pre['signs']}{s}{pre['resonance']}{_quote(x)}\n"
                 + "  " * level + "}" for x in _LABELS for s in _PATTERN_JSON]


def _rows(triads, fmt: str, level: int = 0, rational: bool = False):
    """The row texts of ``triads``, a ``TriadColumns`` or ``Triad``
    objects, in ``fmt``: "csv" (with the RATIONAL_EXTRA_COLUMNS when
    ``rational``), "table", or "json" records whose braces are indented at
    ``level``; one list per chunk of CHUNK_PIECES rows, half as many in
    JSON.

    A chunk of columns of finite floats is made from text made once per
    distinct mode of the columns (:meth:`.triad.TriadColumns.modes`):
    ``float.__repr__`` of omega and of its hz as ``to_hz`` computes it, or
    the hz as ``%.4f`` in tables, where each line fills a %-template.  A
    CSV row or JSON record is one join of pieces, with :func:`_fields`'
    separators and keys folded in: per member position, its m,n, omega and
    hz piece by mode, gathered by index; then one piece per run of
    bit-equal adjacent (discrepancy, d_ratio, pattern), which holds
    ``float.__repr__`` of both, the signs and the label.  Any other chunk
    (``Triad`` objects, or columns with rationals, inf or NaN, made into
    Triads on the modes of the whole columns, :func:`.triad._triads`) is
    written through each triad's record, or ``triad_table_line``."""
    columns = isinstance(triads, TriadColumns) and len(triads)
    modes = triads.modes() if columns else None
    plain = columns and triads.table.dtype == np.float64
    if plain:
        (m, n), w, index = modes
        hz = (w / TWO_PI).tolist()
        objects = lambda pieces: np.fromiter(pieces, object, w.size)
        if fmt == "table":
            text = [objects(map("%.4f".__mod__, hz))]
        else:
            pre, tails = _fields(fmt, level)
            mn = list(zip(m.tolist(), n.tolist()))
            text = [objects(f"{x}{a}{y}{b}" for a, b in mn) for x, y in (
                (pre["m" + p], pre["n" + p]) for p in "123")]
            text += [pre[k + p] + x for k, x in (
                ("omega", objects(map(float.__repr__, w.tolist()))),
                ("hz", objects(map(float.__repr__, hz)))) for p in "123"]
    size = CHUNK_PIECES // 2 if fmt == "json" else CHUNK_PIECES
    for lo in range(0, len(triads), size):
        c = triads[lo:lo + size]
        at = [index(m, n) for m, n in c.members()] if plain else ()
        if not plain or not all(np.isfinite(x).all() for x in (
                *(w[i] for i in at), c.discrepancy, c.d_ratio)):
            yield [_triad_text(x, fmt, level, rational) for x in (
                _triads(c, modes) if columns else c)]
        elif fmt == "table":
            yield list(map(_TABLE_TEMPLATE.__mod__, zip(
                map("[%d,%d][%d,%d][%d,%d]".__mod__,
                    zip(*(x.tolist() for k in c.members() for x in k))),
                *(text[0][i].tolist() for i in at), c.d_ratio.tolist(),
                map(_PATTERN_TEXT.__getitem__, c.pattern.tolist()))))
        else:
            d, r = c.discrepancy, c.d_ratio
            new = np.ones(len(c), bool)  # compared as bits: -0.0 != 0.0
            new[1:] = np.diff(np.stack((d.view(np.int64), r.view(np.int64),
                                        c.pattern)), axis=1).any(0)
            i = np.flatnonzero(new)
            x, y = pre["discrepancy"], pre["d_ratio"]
            runs = [f"{x}{a!r}{y}{b!r}{tails[t]}" for a, b, t in zip(
                d[i].tolist(), r[i].tolist(),
                (c.pattern[i] + 3 * (r[i] <= NUMERIC_EXACT_D)).tolist())]
            yield list(map("".join, zip(
                *(p.take(k).tolist() for p, k in zip(text, at * 3)),
                np.array(runs, object)[new.cumsum() - 1].tolist())))


def _triad_text(t: Triad, fmt: str, level: int, rational: bool) -> str:
    """One triad's row as ``_rows`` gives it, through its record."""
    if fmt == "table":
        return triad_table_line(t)
    if fmt == "csv":
        return ",".join(map(str, _triad_row(t, rational))) + "\n"
    out = []
    _write(triad_to_record(t), level, out, None)
    return "".join(out)


def write_triads_csv(write, triads) -> None:
    """Write the CSV text of ``triads``, a ``TriadColumns`` or ``Triad``
    objects, to ``write`` in chunks of CHUNK_PIECES rows: one row per triad
    under TRIAD_COLUMNS, and the RATIONAL_EXTRA_COLUMNS when any triad
    carries an exact rational discrepancy."""
    if isinstance(triads, TriadColumns):
        rational = len(triads) > 0 and triads.discrepancy.dtype == object
    else:
        triads = triads if isinstance(triads, list) else list(triads)
        rational = any(isinstance(t.discrepancy, Fraction) for t in triads)
    columns = TRIAD_COLUMNS + (RATIONAL_EXTRA_COLUMNS if rational else [])
    write(",".join(columns) + "\n")
    for rows in _rows(triads, "csv", rational=rational):
        write("".join(rows))


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
    """The table lines of ``triads``, a ``TriadColumns`` or ``Triad``s."""
    if not isinstance(triads, TriadColumns):
        triads = list(triads)
    return "".join(line + "\n" for rows in _rows(triads, "table")
                   for line in rows)


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
    lines = []
    for head, triads in ((f"Type A (d_ratio <= {plan.d_max}):", plan.type_a),
                         (f"Type B (d_ratio >= {plan.d_min}):", plan.type_b)):
        table = ["  " + x for x in triads_to_table(triads).splitlines()]
        lines += [head, *(table or ["  (none)"])]
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


def _write(v, level: int, out: list, write) -> None:
    """Append to ``out`` the ``json.dumps(v, indent=2)`` text of ``v``,
    whose closing bracket is indented at ``level``.  Between the elements
    of a list, ``out`` is handed to ``write`` as one chunk and emptied once
    it holds CHUNK_PIECES pieces, and after each chunk of a
    ``TriadColumns``."""
    if isinstance(v, Triad):
        v = triad_to_record(v)
    if isinstance(v, str):
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
    elif isinstance(v, (list, tuple, TriadColumns)):
        if not len(v):
            out.append("[]")
            return
        inner = "\n" + "  " * (level + 1)
        sep = "[" + inner
        if isinstance(v, TriadColumns):  # a write after each chunk of rows
            for rows in _rows(v, "json", level + 1):
                out.append(sep + ("," + inner).join(rows))
                sep = "," + inner
                write("".join(out))
                out.clear()
        else:
            for x in v:
                out.append(sep)
                _write(x, level + 1, out, write)
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
            _write(x, level + 1, out, write)
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
    (resolved config) is embedded unless suppressed."""
    if header is not None:
        payload = {"config": header, "result": payload}
    out = []
    _write(payload, 0, out, write)
    out.append("\n")
    write("".join(out))


def to_json(payload, header: dict | None = None) -> str:
    """The text ``write_json`` writes, as one string."""
    chunks = []
    write_json(chunks.append, payload, header)
    return "".join(chunks)
