"""Command-line front end.

Subcommands: find-triads, classify, bound, plan, sweep, eval.
Exit codes: 0 success, 2 usage error, 3 domain error, 4 I/O error.

Every subcommand takes the dispersion options (--dispersion, --liquid,
--mu-nu, --g, --alpha, --lx, --ly, --plane-form or --config) and the
output options (--format, --output, --no-header).  The five commands over
a spectral domain add --T/--shape, and find-triads and classify also
--patterns/--closure; eval takes none of these.  Each option is defined
once, on a parent parser in :func:`build_parser`.

Every run embeds its resolved configuration in the output header
(suppressed with --no-header); payloads carry no timestamps, so identical
configurations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

from . import report
from .classify import N_SELECTIONS, classify_modes
from .dispersion import (
    DEFAULT_G,
    LIQUID_PRESETS,
    DispersionSpec,
    SpectralDomain,
    WaveVector,
    domain_for,
    eval_frequency,
    rescale_for_basin,
)
from .errors import DomainError, UsageError
from .experiment import _plan_columns, geometry_sweep
from .search import _sorted_search, discrepancy_lower_bound, find_exact_triads

#: ``--dispersion`` names: the library's kinds, spelled with dashes.
_CLI_KINDS = {k.replace("_", "-"): k for k in DispersionSpec._KINDS}


def _threshold(text: str) -> float:
    """argparse type of the search thresholds: a finite float.  An
    infinite or NaN threshold selects all or nothing, and JSON output
    cannot carry it."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


#: Options that define the dispersion, by argparse destination; a
#: ``--config`` file replaces every one of them.
_SPEC_OPTIONS = {dest: "--" + dest.replace("_", "-") for dest in (
    "dispersion", "liquid", "mu_nu", "g", "alpha", "lx", "ly", "plane_form")}

#: Options only some kinds read, by argparse destination, with those
#: kinds; given to any other kind they are refused, not dropped.
_BASIN_KINDS = tuple(k for k in DispersionSpec._KINDS if k != "rossby_sphere")
_KIND_OPTIONS = {"mu_nu": ("gravity_capillary",), "g": ("gravity_capillary",),
                 "alpha": ("gravity_tanh",), "plane_form": ("bve_plane",),
                 "lx": _BASIN_KINDS, "ly": _BASIN_KINDS}


def _refuse_ignored(kind, given: dict) -> None:
    """Refuse the options ``given`` (destination -> name) that ``kind``
    does not read, by ``_KIND_OPTIONS``."""
    ignored = [name for dest, name in given.items()
               if kind not in _KIND_OPTIONS[dest]]
    if ignored:
        raise UsageError(f"{kind} does not take {', '.join(ignored)}")


def _config_options(cfg: dict) -> dict:
    """The options of ``_KIND_OPTIONS`` a configuration sets, destination
    -> key.  ``g`` and the basin sides count only off their defaults,
    which every output header writes."""
    basin = cfg.get("basin") or {}
    sets = {"mu_nu": cfg.get("mu_over_nu") is not None,
            "g": cfg.get("g", DEFAULT_G) != DEFAULT_G,
            "alpha": cfg.get("alpha") is not None,
            "plane_form": cfg.get("plane_form") is not None,
            "lx": basin.get("lx", 1.0) != 1.0,
            "ly": basin.get("ly", 1.0) != 1.0}
    keys = {"mu_nu": "mu_over_nu", "lx": "basin lx", "ly": "basin ly"}
    return {dest: keys.get(dest, dest) for dest, on in sets.items() if on}


def build_spec(args) -> DispersionSpec:
    if args.config:
        given = [flag for dest, flag in _SPEC_OPTIONS.items()
                 if getattr(args, dest) is not None]
        if given:
            raise UsageError(f"--config conflicts with {', '.join(given)}")
        with open(args.config) as fh:
            try:
                cfg = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise DomainError(f"--config {args.config}: {exc}") from None
        spec = DispersionSpec.from_config(cfg)
        _refuse_ignored(spec.kind, _config_options(cfg))
        return spec
    kind = None
    mu = args.mu_nu
    if args.liquid:
        if mu is not None:
            raise UsageError("--liquid conflicts with --mu-nu")
        kind = "gravity_capillary"
        mu = LIQUID_PRESETS[args.liquid]
    if args.dispersion:
        cli_kind = _CLI_KINDS[args.dispersion]
        if kind is not None and cli_kind != kind:
            raise UsageError("--liquid implies --dispersion gravity-capillary")
        kind = cli_kind
    if kind is None:
        raise UsageError("a dispersion must be selected "
                         "(--dispersion, --liquid or --config)")
    _refuse_ignored(kind, {dest: _SPEC_OPTIONS[dest] for dest in _KIND_OPTIONS
                           if getattr(args, dest) is not None})
    spec = DispersionSpec(kind=kind,
                          g=DEFAULT_G if args.g is None else args.g,
                          mu_over_nu=mu, alpha=args.alpha,
                          plane_form=args.plane_form or "printed")
    if args.lx is None and args.ly is None:
        return spec
    return rescale_for_basin(spec, 1.0 if args.lx is None else args.lx,
                             1.0 if args.ly is None else args.ly)


def _emit(args, header: dict, payload, table, csv=None):
    """Render and write the one format ``--format`` asks for.

    ``payload`` is a zero-argument callable giving what
    ``report.write_json`` writes; ``table`` and ``csv`` write their text to
    the callable they are given, and ``csv`` is None for commands without a
    CSV form.  Only the chosen one is called, so a run builds no output it
    does not write.  Every format reaches ``--output`` or stdout in chunks,
    after the header lines of CSV and table output."""
    if args.format == "csv" and csv is None:
        raise UsageError("csv output is not defined for this command")
    with (open(args.output, "w") if args.output
          else contextlib.nullcontext(sys.stdout)) as fh:
        if args.format == "json":
            report.write_json(fh.write, payload(),
                              None if args.no_header else header)
            return
        if not args.no_header:
            fh.write("".join(f"# {k}={json.dumps(v, sort_keys=True)}\n"
                             for k, v in header.items()))
        (csv if args.format == "csv" else table)(fh.write)


def _header(args, spec, domain, **extra) -> dict:
    """The run's header: command, dispersion, the domain if any, then
    ``extra`` in order."""
    h = {"command": args.command, "dispersion": spec.to_config()}
    if domain is not None:
        h["domain"] = {"T": domain.truncation, "shape": domain.shape}
    return h | extra


# -- command handlers: (args, spec, domain), domain None for eval -----------

def cmd_find_triads(args, spec, domain):
    if args.d_max is not None and args.d_min is not None:
        raise UsageError("--d-max and --d-min are mutually exclusive")
    if args.exact:
        if args.d_max is not None or args.d_min is not None:
            raise UsageError("--exact conflicts with --d-max/--d-min")
        if args.closure not in ("auto", "zonal") or args.patterns != "sum":
            raise UsageError("--exact searches zonal closure under the sum "
                             "pattern only; drop --closure/--patterns")
        triads = find_exact_triads(spec, domain)
        mode = {"mode": "exact"}
    elif args.d_min is not None:  # columns, which the writers render
        triads = _sorted_search(spec, domain, args.patterns, args.closure,
                                d_min=args.d_min)
        mode = {"mode": "max-discrepancy", "d_min": args.d_min}
    else:
        d_max = args.d_max if args.d_max is not None else 1e-6
        triads = _sorted_search(spec, domain, args.patterns, args.closure,
                                d_max=d_max)
        mode = {"mode": "near", "d_max": d_max}
    header = _header(args, spec, domain, **mode, patterns=args.patterns,
                     closure=args.closure)
    _emit(args, header, lambda: triads,
          lambda write: report.write_triads_table(write, triads),
          lambda write: report.write_triads_csv(write, triads))


def cmd_classify(args, spec, domain):
    part = classify_modes(spec, domain, args.omega_max,
                          patterns=args.patterns, closure=args.closure,
                          n_selection=args.n_selection,
                          bridge_mode=args.bridge_mode)
    header = _header(args, spec, domain, omega_max=args.omega_max,
                     patterns=args.patterns, closure=args.closure,
                     n_selection=args.n_selection,
                     bridge_mode=args.bridge_mode)
    _emit(args, header, lambda: report.partition_to_records(part),
          lambda write: report.write_partition_table(write, part),
          lambda write: report.write_partition_csv(write, part))


def cmd_bound(args, spec, domain):
    rep = discrepancy_lower_bound(spec, domain)
    _emit(args, _header(args, spec, domain),
          lambda: report.bound_to_record(rep),
          lambda write: report.write_json(write, report.bound_to_record(rep)))


def cmd_plan(args, spec, domain):
    plan = _plan_columns(spec, domain, args.d_max, args.d_min, args.epsilon)
    header = _header(args, spec, domain, d_max=args.d_max,
                     d_min=args.d_min, epsilon=args.epsilon)
    _emit(args, header, lambda: report.plan_to_record(plan),
          lambda write: report.write_plan_table(write, plan))


def cmd_sweep(args, spec, domain):
    try:
        lxs = [float(v) for v in args.lx_values.split(",") if v]
        lys = [float(v) for v in args.ly_values.split(",") if v]
    except ValueError as exc:
        raise UsageError(f"bad grid value: {exc}") from exc
    rep = geometry_sweep(spec, domain, lxs, lys, args.d_max, args.omega_max)
    header = _header(args, spec, domain, d_max=args.d_max,
                     omega_max=args.omega_max, lx_values=lxs, ly_values=lys)
    _emit(args, header, lambda: report.sweep_to_record(rep),
          lambda write: write(report.sweep_to_table(rep)))


def cmd_eval(args, spec, domain):
    freq = eval_frequency(spec, WaveVector(args.m, args.n))
    omega = freq.omega
    payload = {"m": args.m, "n": args.n, "omega": omega}
    if freq.is_exact:
        payload["omega_float"] = float(omega)
        text = f"{omega.numerator}/{omega.denominator}\n"
    else:
        text = f"{omega!r}\n"
    payload["hz"] = freq.hz
    _emit(args, _header(args, spec, domain, m=args.m, n=args.n),
          lambda: payload, lambda write: write(text))


def build_parser() -> argparse.ArgumentParser:
    """The parser.  The subcommands copy the shared options from one of
    three parents: ``shared``, ``domain`` (+ --T/--shape) and ``scan``
    (+ --patterns/--closure)."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--dispersion", choices=sorted(_CLI_KINDS),
                        help="dispersion relation")
    shared.add_argument("--liquid", choices=sorted(LIQUID_PRESETS),
                        help="gravity-capillary preset for a named liquid")
    shared.add_argument("--mu-nu", type=float,
                        help="surface tension over density (cm^3/s^2)")
    shared.add_argument("--g", type=float,
                        help="gravitational acceleration (cm/s^2, default "
                             f"{DEFAULT_G:g})")
    shared.add_argument("--alpha", type=float,
                        help="depth parameter (gravity-tanh)")
    shared.add_argument("--lx", type=float, help="basin side Lx (cm)")
    shared.add_argument("--ly", type=float, help="basin side Ly (cm)")
    shared.add_argument("--plane-form", choices=("printed", "squared"),
                        help="plane dispersion variant (default printed)")
    shared.add_argument("--config",
                        help="JSON file with a dispersion configuration")
    shared.add_argument("--format", choices=("json", "csv", "table"),
                        default="table", help="output format")
    shared.add_argument("--output", help="write to file instead of stdout")
    shared.add_argument("--no-header", action="store_true",
                        help="suppress the configuration header")
    domain = argparse.ArgumentParser(add_help=False, parents=[shared])
    domain.add_argument("--T", type=int, default=30,
                        help="spectral truncation")
    domain.add_argument("--shape", choices=("square", "triangular"),
                        help="domain shape (default: triangular on the "
                             "sphere)")
    scan = argparse.ArgumentParser(add_help=False, parents=[domain])
    scan.add_argument("--patterns", choices=("sum", "all"), default="sum")
    scan.add_argument("--closure", choices=("auto", "both", "zonal", "box"),
                      default="auto")

    ap = argparse.ArgumentParser(
        prog="wavetriads",
        description="Exact and approximate resonant wave triads over finite "
                    "integer spectral domains")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("find-triads", parents=[scan],
                       help="enumerate resonant triads")
    p.add_argument("--d-max", type=_threshold,
                   help="near-resonance ceiling on d_ratio (default 1e-6)")
    p.add_argument("--d-min", type=_threshold,
                   help="max-discrepancy floor on d_ratio")
    p.add_argument("--exact", action="store_true",
                   help="exact rational search (spherical dispersion only)")
    p.set_defaults(func=cmd_find_triads)

    p = sub.add_parser("classify", parents=[scan],
                       help="partition modes into classes")
    p.add_argument("--omega-max", type=_threshold, required=True,
                   help="approximate-resonance threshold on |Omega|")
    p.add_argument("--n-selection", default="none", choices=N_SELECTIONS)
    p.add_argument("--bridge-mode", choices=("per_pair", "per_triad"),
                   default="per_pair")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("bound", parents=[domain],
                       help="discrepancy lower bounds")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("plan", parents=[domain],
                       help="experiment plan (frequencies, amplitudes)")
    p.add_argument("--d-max", type=_threshold, default=1e-6)
    p.add_argument("--d-min", type=_threshold, default=0.1)
    p.add_argument("--epsilon", type=float, default=0.1,
                   help="wave steepness for amplitude selection")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("sweep", parents=[domain], help="basin geometry sweep")
    p.add_argument("--lx-values", required=True,
                   help="comma-separated Lx grid")
    p.add_argument("--ly-values", required=True,
                   help="comma-separated Ly grid")
    p.add_argument("--d-max", type=_threshold, default=1e-6)
    p.add_argument("--omega-max", type=_threshold, default=0.3)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", parents=[shared],
                       help="evaluate the dispersion at one mode")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_eval)

    return ap


#: The parser :func:`main` reads, built on its first call: argparse keeps
#: no state between parses, and building one costs about a millisecond.
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        spec = build_spec(args)
        domain = None
        if "T" in args:  # every command but eval
            domain = (SpectralDomain(args.T, args.shape) if args.shape
                      else domain_for(spec, args.T))
        args.func(args, spec, domain)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
