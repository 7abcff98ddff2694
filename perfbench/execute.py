"""Turning a query dict into a call on the program, and digesting results.

CLI queries go through ``wavetriads.cli.main`` with an ``--output`` file;
library queries call the public functions.  Both look the entry point up
on its module at call time, so a traced pass reaches the wrapped function.
Spec, domain and cascade seed are built before the clock starts.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import wavetriads as W
from wavetriads import cli

CLI_KINDS = {"rossby_sphere": "rossby-sphere", "capillary": "capillary",
             "gravity_capillary": "gravity-capillary",
             "gravity_tanh": "gravity-tanh", "bve_plane": "bve-plane"}


class QueryFailed(Exception):
    pass


def spec_of(disp: dict) -> W.DispersionSpec:
    lx, ly = disp.get("lx", 1.0), disp.get("ly", 1.0)
    if disp["kind"] == "rossby_sphere":
        basin = W.BasinGeometry("sphere")
    elif lx == 1.0 and ly == 1.0:
        basin = W.BasinGeometry("unit_square")
    else:
        basin = W.BasinGeometry("rectangle", lx=lx, ly=ly)
    return W.DispersionSpec(disp["kind"], mu_over_nu=disp.get("mu_over_nu"),
                            alpha=disp.get("alpha"), basin=basin,
                            plane_form=disp.get("plane_form", "printed"))


def domain_of(q: dict) -> W.SpectralDomain:
    return W.SpectralDomain(q["T"], q.get("shape", "square"))


def resolved_closure(q: dict) -> str:
    closure = q.get("closure", "auto")
    if closure == "auto":
        return "zonal" if q["disp"]["kind"] == "rossby_sphere" else "both"
    return closure


def cli_argv(q: dict) -> list:
    d = q["disp"]
    if "liquid" in d:
        args = ["--liquid", d["liquid"]]
    else:
        args = ["--dispersion", CLI_KINDS[d["kind"]]]
        if d.get("mu_over_nu") is not None:
            args += ["--mu-nu", repr(d["mu_over_nu"])]
        if d.get("alpha") is not None:
            args += ["--alpha", repr(d["alpha"])]
    if "lx" in d:
        args += ["--lx", repr(d["lx"]), "--ly", repr(d["ly"])]
    if q["op"] == "plan":
        cmd = "plan"
        args += ["--d-max", repr(q["d_max"]), "--d-min", repr(q["d_min"]),
                 "--epsilon", repr(q["epsilon"])]
    else:
        cmd = "find-triads"
        args += ["--patterns", q["patterns"], "--closure", q["closure"]]
        if q["op"] == "near":
            args += ["--d-max", repr(q["d_max"])]
        else:
            args += ["--d-min", repr(q["d_min"])]
    return [cmd, *args, "--T", str(q["T"]), "--format", q["format"]]


def prepare(q: dict):
    """A callable taking the output path and returning the query's result
    (the path for CLI queries, the library's return value otherwise)."""
    if q["via"] == "cli":
        argv = cli_argv(q)

        def run_cli(path):
            rc = cli.main([*argv, "--output", path])
            if rc != 0:
                raise QueryFailed(f"exit code {rc}")
            return path
        return run_cli

    spec, dom, op = spec_of(q["disp"]), domain_of(q), q["op"]
    if op == "maxd":
        return lambda _: W.find_max_discrepancy_triads(
            spec, dom, q["d_min"], patterns=q["patterns"], closure=q["closure"])
    if op == "exact":
        return lambda _: W.find_exact_triads(spec, dom)
    if op == "bound":
        return lambda _: W.discrepancy_lower_bound(spec, dom)
    if op == "classify":
        return lambda _: W.classify_modes(spec, dom, q["omega_max"],
                                          **q["convention"])
    if op == "cascade":
        key = tuple(W.WaveVector(*k) for k in q["seed_triad"])
        seed = [t for t in W.find_exact_triads(spec, dom) if t.key() == key]
        if not seed:
            raise QueryFailed(f"cascade seed {key} is not an exact triad")
        return lambda _: W.cascade_path(spec, dom, seed[0], q["depth"])
    raise ValueError(f"unknown library query {op!r}")


# -- canonical digests --------------------------------------------------------

def num(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return x.hex()
    return repr(x)


def canon_triad(t) -> str:
    ks = ";".join(f"{k.m},{k.n}" for k in (t.k1, t.k2, t.k3))
    ws = ",".join(num(w) for w in t.omegas)
    signs = "".join("+" if s > 0 else "-" for s in t.signs)
    return f"{ks}|{ws}|{num(t.discrepancy)}|{num(t.d_ratio)}|{signs}"


def _canon_step(s) -> str:
    pair = ";".join(f"{k.m},{k.n}" for k in s.donor_pair)
    return (f"{canon_triad(s.source_triad)}>{pair}>{s.bridge_wave.m},"
            f"{s.bridge_wave.n}|{num(s.bridge_discrepancy)}")


def canon(q: dict, result) -> str:
    op = q["op"]
    if op in ("maxd", "exact"):
        return "\n".join(canon_triad(t) for t in result)
    if op == "bound":
        parts = []
        for b in (result.apriori, result.finite_min):
            if b is None:
                parts.append("none")
                continue
            w = canon_triad(b.witness) if b.witness is not None else "-"
            parts.append(f"{b.method}|{num(b.value)}|{w}")
        return "\n".join(parts + [result.note])
    if op == "classify":
        lines = ["counts " + ",".join(map(str, result.counts()))]
        for k in sorted(result.assignments):
            a = result.assignments[k]
            lines.append(f"{k.m},{k.n} {a.mode_class} "
                         f"{num(a.min_abs_discrepancy)}")
        lines += ["seed " + canon_triad(t) for t in result.resonant_triads]
        lines += ["bridge " + _canon_step(s) for s in result.bridges]
        return "\n".join(lines)
    if op == "cascade":
        return "\n".join(_canon_step(s) for s in result)
    raise ValueError(f"no canonical form for {op!r}")


def digest(q: dict, result) -> str:
    h = hashlib.sha256()
    if q["via"] == "cli":
        with open(result, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    else:
        h.update(canon(q, result).encode())
    return h.hexdigest()
