"""Serialisation of triad lists, mode partitions, bounds, plans and sweeps
to JSON, CSV and fixed-width tables.

Column order for triad tables is fixed:
m1,n1,m2,n2,m3,n3,omega1,omega2,omega3,hz1,hz2,hz3,discrepancy,d_ratio,signs
Exact rationals serialise as "p/q" strings; a float approximation is
appended in *_float fields.

``write_json`` and the triad, plan and partition writers (``write_*``)
are the chunk writers: they hand their text to a ``write`` callable chunk
by chunk (about 64-128 KB of triad text, or CHUNK_PIECES modes), so the
CLI streams an inventory or a classification in every format and never
holds the whole text: ``deque(map(write, chunks), 0)`` lets each chunk go
once written, before the next is built.  ``to_json`` and
``triads_to_csv`` return the join of the same chunks.

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

One renderer (:func:`_rows`) gives the JSON, CSV and table text of a
chunk of triads.  The CLI's searches and plans hand it columns
(:class:`.triad.TriadColumns`), which hold no frequencies: they read each
distinct mode's from their table once, since thousands of triads draw
their frequencies from a few hundred modes.  A chunk of finite floats, in
any format, is one join of per-mode and per-run text, in batches of
chunks.  Other chunks of columns (rationals, inf, NaN) are made into
``Triad``s on those per-mode frequencies, one object a mode, and these,
like lists of ``Triad`` objects, go through each triad's record.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .classify import CLASSES, ModePartition
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
        rec |= zip(RATIONAL_EXTRA_COLUMNS, map(float, (*t.omegas,
                                                       t.discrepancy)))
    return rec


#: Text (CSV, tables) and JSON text of each sign pattern by its index in
#: SIGN_PATTERNS, and a float triad's label by d_ratio <= NUMERIC_EXACT_D.
_PATTERN_TEXT = tuple(_signs_str(s) for s in SIGN_PATTERNS)
_PATTERN_JSON = tuple(map(_quote, _PATTERN_TEXT))
_LABELS = ("near", "numerically_exact")

#: Table pads by bracket length (``%-24s``); chunks in a :func:`_rows` batch.
_PADS = np.array([" " * (24 - k) + " (" for k in range(25)], object)
_BATCH = 4


def _pieces(fmt: str, level: int, sep: str, modes):
    """:func:`_rows`' per-mode pieces in row order, as object arrays over
    ``modes`` with the member position that gathers each (3: the pad); a
    function from runs' discrepancies, d_ratios and tails to their texts;
    and bracket lengths in tables.  CSV and JSON pieces (cells, keys and
    the JSON ``sep`` folded in) are made only where a position has a mode."""
    (m, n, where), w, _ = modes
    hz = (w / TWO_PI).tolist()
    if fmt == "table":
        br = np.fromiter(map("[{},{}]".format, m.tolist(), n.tolist()),
                         object, w.size)
        hz = np.fromiter(map("%.4f".__mod__, hz), object, w.size)
        tails = [f"  {s}\n" for s in _PATTERN_TEXT] * 2
        return [(br, 0), (br, 1), (br, 2), (_PADS, 3), (hz, 0), *(
            (x, p) for x in [", " + hz] for p in (1, 2))], lambda d, r, t: [
            f");  d={b:.3e}{tails[k]}" for b, k in zip(r.tolist(), t.tolist())
        ], np.fromiter(map(len, br), np.intp, w.size)
    if fmt == "csv":
        pre = dict.fromkeys(TRIAD_COLUMNS[1:], ",") | {"m1": ""}
        tails = [f",{s}\n" for s in _PATTERN_TEXT] * 2
    else:
        inner = "\n" + "  " * (level + 1)
        pre = {k: f",{inner}{_quote(k)}: " for k in TRIAD_COLUMNS + [
            "resonance"]} | {"m1": sep + "{" + inner + '"m1": '}
        tails = [f"{pre['signs']}{s}{pre['resonance']}{_quote(x)}\n"
                 + "  " * level + "}" for x in _LABELS for s in _PATTERN_JSON]
    x, y = pre["discrepancy"], pre["d_ratio"]
    used = [np.flatnonzero(where & 1 << p) for p in range(3)]
    at = lambda p, texts: np.put(out := np.empty(w.size, object), used[p],
                                 texts) or out
    pieces = [(at(p, [f"{pre[f'm{p + 1}']}{a}{pre[f'n{p + 1}']}{b}" for a, b
                      in zip(m[u].tolist(), n[u].tolist())]), p)
              for p, u in enumerate(used)]
    for k, v in (("omega", w.tolist()), ("hz", hz)):
        v = np.fromiter(map(float.__repr__, v), object, w.size)
        pieces += [(at(p, pre[f"{k}{p + 1}"] + v[u]), p)
                   for p, u in enumerate(used)]
    return pieces, lambda d, r, t: [f"{x}{a!r}{y}{b!r}{tails[k]}" for a, b, k
                                    in zip(d.tolist(), r.tolist(), t.tolist())
                                    ], None


def _rows(triads, fmt: str, level: int = 0, rational: bool = False):
    """The text of ``triads``, a ``TriadColumns`` or ``Triad``s, in
    ``fmt``: "csv" rows (with the RATIONAL_EXTRA_COLUMNS if ``rational``),
    "table" lines or "json" records indented at ``level``, joined by their
    separator, per chunk of CHUNK_PIECES rows (half as many in JSON).
    Float columns render in batches of _BATCH chunks: the numpy work (mode
    indices, finite test, runs of bit-equal adjacent discrepancy, d_ratio
    and pattern, tails) is done once a batch; a finite chunk is then one
    join of a flat list of its rows' :func:`_pieces` and run pieces, made
    per chunk: ``float.__repr__`` of both values (d_ratio ``%.3e`` in
    tables), signs and label.  Other chunks (``Triad``s, or rationals, inf
    or NaN, as Triads on all the columns' modes, :func:`.triad._triads`)
    go through each triad's record or ``triad_table_line``."""
    columns = isinstance(triads, TriadColumns) and len(triads)
    modes = triads.modes() if columns else None
    size = CHUNK_PIECES // 2 if fmt == "json" else CHUNK_PIECES
    sep = ",\n" + "  " * level if fmt == "json" else ""
    records = lambda c: sep.join(_triad_text(x, fmt, level, rational) for x in
                                 (_triads(c, modes) if columns else c))
    if not (columns and triads.table.dtype == np.float64):
        yield from map(records, (triads[lo:lo + size] for lo in range(
            0, len(triads), size)))
        return
    (_, w, index), finite = modes, np.isfinite(modes[1])
    pieces, runs, width = _pieces(fmt, level, sep, modes)
    P = len(pieces) + 1

    def join(a, b):  # a call, so its pieces go before its text is yielded
        u, v = run[a], run[b - 1] + 1
        flat = [None] * (P * (b - a))
        for j, (p, k) in enumerate(pieces):
            flat[j::P] = p.take(at[k][a:b]).tolist()
        texts = np.array(runs(d[u:v], r[u:v], t[u:v]), object)
        flat[P - 1::P] = texts.take(run[a:b] - u).tolist()
        flat[0] = flat[0][len(sep):]
        return "".join(flat)

    for lo in range(0, len(triads), size * _BATCH):
        c = triads[lo:lo + size * _BATCH]
        at = [index(m, n) for m, n in c.members()]
        d, r, s = c.discrepancy, c.d_ratio, c.pattern
        ok = (finite[at[0]] & finite[at[1]] & finite[at[2]] & np.isfinite(d)
              & np.isfinite(r))
        if width is not None:
            at.append(np.minimum(sum(width[k] for k in at), 24))
        x, y, new = d.view(np.int64), r.view(np.int64), np.ones(len(c), bool)
        new[1:] = (x[1:] != x[:-1]) | (y[1:] != y[:-1]) | (s[1:] != s[:-1])
        i, run = np.flatnonzero(new), new.cumsum() - 1
        d, r, t = d[i], r[i], s[i] + 3 * (r[i] <= NUMERIC_EXACT_D)
        for a in range(0, len(c), size):
            b = min(a + size, len(c))
            yield join(a, b) if ok[a:b].all() else records(c[a:b])


def _triad_text(t: Triad, fmt: str, level: int, rational: bool) -> str:
    """One triad's row as ``_rows`` gives it, through its record; in CSV
    the values under TRIAD_COLUMNS, then under RATIONAL_EXTRA_COLUMNS when
    ``rational`` (empty for a float triad in a rational list)."""
    if fmt == "table":
        return triad_table_line(t) + "\n"
    rec, out = triad_to_record(t), []
    if fmt == "csv":
        return ",".join(str(rec.get(c, "")) for c in TRIAD_COLUMNS + (
            RATIONAL_EXTRA_COLUMNS if rational else [])) + "\n"
    _write(rec, level, out, None)
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
    deque(map(write, _rows(triads, "csv", rational=rational)), 0)


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


def write_triads_table(write, triads) -> None:
    """Write the table lines of ``triads``, a ``TriadColumns`` or a list of
    ``Triad``s, to ``write`` in chunks of CHUNK_PIECES lines."""
    deque(map(write, _rows(triads, "table")), 0)


# -- mode partitions --------------------------------------------------------

def _mode_rows(part: ModePartition, at=slice(None)):
    """The modes of ``part`` at ``at`` as (m, n, class code, least |Omega|)
    rows, zipped a chunk of CHUNK_PIECES modes at a time."""
    m, n = part.domain.mode_arrays()
    cols = [x[at] for x in (m, n, part.classes, part.min_abs_discrepancy)]
    for lo in range(0, cols[0].size, CHUNK_PIECES):
        yield zip(*(x[lo:lo + CHUNK_PIECES].tolist() for x in cols))


def partition_to_records(part: ModePartition) -> dict:
    """The JSON payload of ``part``: its counts, then a record a mode,
    citing the one record made for each seed and bridge."""
    cited = {id(t): {"kind": "resonant_triad", "triad": _triad_brackets(t)}
             for t in part.resonant_triads} | {id(s): {
                 "kind": "bridge", "triad": _triad_brackets(s.source_triad),
                 "pair": [[p.m, p.n] for p in s.donor_pair],
                 "discrepancy": _num(s.bridge_discrepancy)}
                 for s in part.bridges}
    modes = [{"m": a, "n": b, "class": CLASSES[c],
              "min_abs_discrepancy": None if d != d else d,
              "evidence_triads": [cited[id(x)] for x in
                                  part.evidence.get((a, b), ())]}
             for rows in _mode_rows(part) for a, b, c, d in rows]
    summary = dict(zip(CLASSES, part.counts()), omega_max=part.omega_max,
                   convention=part.convention)
    return {"summary": summary, "modes": modes}


def write_partition_csv(write, part: ModePartition) -> None:
    """Write the CSV text of ``part`` to ``write``, a row a mode (an empty
    last cell for no least |Omega|), in chunks of CHUNK_PIECES rows."""
    write("m,n,class,min_abs_discrepancy\n")
    for rows in _mode_rows(part):
        write("".join(f"{a},{b},{CLASSES[c]},{'' if d != d else d}\n"
                      for a, b, c, d in rows))


def write_partition_table(write, part: ModePartition) -> None:
    """Write the table of ``part`` to ``write``: its counts, then a line a
    class listing its modes, in chunks of CHUNK_PIECES modes."""
    write("active={} passive={} neutral={} (omega_max={})\n".format(
        *part.counts(), part.omega_max))
    for i, cls in enumerate(CLASSES):
        write(f"{cls:>8}: ")
        for j, rows in enumerate(_mode_rows(part, part.classes == i)):
            write(" " * (j > 0) + " ".join(f"[{a},{b}]" for a, b, *_ in rows))
        write("\n")


# -- bounds ------------------------------------------------------------------

def bound_to_record(rep: BoundReport) -> dict:
    out = {}
    for key, b in (("apriori", rep.apriori),
                   ("finite_domain_min", rep.finite_min)):
        if b is not None:
            out[key] = {"method": b.method, "value": _num(b.value),
                        "value_float": float(b.value)}
            if b.witness is not None:
                out[key]["witness"] = triad_to_record(b.witness)
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


def write_plan_table(write, plan: ExperimentPlan) -> None:
    """Write the table of ``plan`` to ``write``: each triad set's lines
    indented a chunk at a time, then the amplitudes and notes."""
    for head, triads in ((f"Type A (d_ratio <= {plan.d_max}):", plan.type_a),
                         (f"Type B (d_ratio >= {plan.d_min}):", plan.type_b)):
        write(head + ("\n" if len(triads) else "\n  (none)\n"))
        deque(map(write, ("  " + x[:-1].replace("\n", "\n  ") + "\n"
                          for x in _rows(triads, "table"))), 0)
    write(f"Amplitudes (cm, eps={plan.epsilon}):\n" + "".join(
        f"  {str(k):<9} {a:.6f}\n" for k, a in sorted(plan.amplitudes.items()))
        + plan.notes + "\n")


def sweep_to_record(rep: GeometrySweepReport) -> dict:
    return {
        "d_max": rep.d_max, "omega_max": rep.omega_max,
        "cells": [{
            "lx": c.lx, "ly": c.ly,
            "triad_count": c.triad_count,
            "resonance_free": c.resonance_free,
            "counts": dict(zip(CLASSES, c.counts)),
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
            for text in _rows(v, "json", level + 1):
                out += sep, text
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
