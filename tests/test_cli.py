import argparse
import json
from pathlib import Path

import pytest

from wavetriads import DispersionSpec, SpectralDomain, find_near_triads
from wavetriads import cli, report
from wavetriads.cli import build_parser, main
from wavetriads.report import (
    RATIONAL_EXTRA_COLUMNS,
    TRIAD_COLUMNS,
    triad_to_record,
    triads_to_csv,
)
from conftest import gc_spec
from test_golden import CASES, GOLDEN


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_find_triads_table_contains_published_triad(capsys):
    code, out, _ = run_cli(capsys, "find-triads", "--dispersion",
                           "gravity-capillary", "--mu-nu", "75", "--T", "30",
                           "--d-max", "1e-5", "--format", "table")
    assert code == 0
    assert "[1,2][9,1][10,3]" in out


def test_find_triads_exact_sphere(capsys):
    code, out, _ = run_cli(capsys, "find-triads", "--dispersion",
                           "rossby-sphere", "--T", "14", "--exact",
                           "--format", "table")
    assert code == 0
    assert "[4,12][5,14][9,13]" in out
    code, _, err = run_cli(capsys, "find-triads", "--liquid", "water",
                           "--T", "10", "--exact")
    assert code == 2  # exact search demands a rational dispersion


def test_find_triads_d_min_returns_type_b(capsys):
    code, out, _ = run_cli(capsys, "find-triads", "--liquid", "benzaldehyde",
                           "--T", "30", "--d-min", "0.1", "--format", "table")
    assert code == 0
    assert "[5,5][25,25][30,30]" in out


def test_liquid_preset_matches_explicit_ratio(capsys):
    code, with_preset, _ = run_cli(capsys, "find-triads", "--liquid", "water",
                                   "--T", "20", "--d-max", "1e-4",
                                   "--format", "csv", "--no-header")
    assert code == 0
    code, explicit, _ = run_cli(capsys, "find-triads", "--dispersion",
                                "gravity-capillary", "--mu-nu", "75",
                                "--T", "20", "--d-max", "1e-4",
                                "--format", "csv", "--no-header")
    assert code == 0
    assert with_preset == explicit


def test_classify_json_matches_library(capsys):
    code, out, _ = run_cli(capsys, "classify", "--dispersion", "rossby-sphere",
                           "--T", "14", "--omega-max", "0.3",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["command"] == "classify"
    summary = doc["result"]["summary"]
    from wavetriads import class_counts
    a, p, n = class_counts(DispersionSpec("rossby_sphere"),
                           SpectralDomain(14, "triangular"), 0.3)
    assert (summary["active"], summary["passive"], summary["neutral"]) == (a, p, n)
    assert summary["active"] + summary["passive"] + summary["neutral"] == 105


def test_eval_exact_rational(capsys):
    code, out, _ = run_cli(capsys, "eval", "--dispersion", "rossby-sphere",
                           "--m", "1", "--n", "2", "--no-header")
    assert code == 0
    assert out.strip() == "-1/3"


def test_eval_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "eval", "--dispersion", "rossby-sphere",
                           "--m", "0", "--n", "2")
    assert code == 3
    assert "domain error" in err


def test_usage_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "find-triads", "--dispersion",
                           "gravity-capillary", "--mu-nu", "75",
                           "--d-max", "1e-5", "--d-min", "0.1")
    assert code == 2
    code, _, _ = run_cli(capsys, "find-triads", "--T", "10")  # no dispersion
    assert code == 2
    code, _, _ = run_cli(capsys, "find-triads", "--liquid", "water",
                         "--mu-nu", "75")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["find-triads", "--liquid", "water", "--T", "6", "--d-max", "abc"],
     "invalid float value: 'abc'"),
    (["find-triads", "--liquid", "water", "--dispersion", "capillary",
      "--T", "6"], "--liquid implies --dispersion gravity-capillary"),
    (["find-triads", "--dispersion", "rossby-sphere", "--T", "6", "--exact",
      "--d-max", "1e-3"], "--exact conflicts with --d-max/--d-min"),
    (["sweep", "--liquid", "water", "--T", "6", "--lx-values", "1,x",
      "--ly-values", "1"], "bad grid value"),
    (["bound", "--liquid", "water", "--T", "6", "--format", "csv"],
     "csv output is not defined"),
    (["plan", "--liquid", "water", "--T", "6", "--format", "csv"],
     "csv output is not defined"),
    (["sweep", "--liquid", "water", "--T", "6", "--lx-values", "1",
      "--ly-values", "1", "--format", "csv"], "csv output is not defined"),
    (["eval", "--liquid", "water", "--m", "1", "--n", "1", "--format", "csv"],
     "csv output is not defined"),
    (["eval", "--liquid", "water", "--m", "1", "--n", "1", "--T", "5"],
     "unrecognized arguments: --T 5"),
    (["eval", "--liquid", "water", "--m", "1", "--n", "1", "--shape",
      "square"], "unrecognized arguments: --shape square"),
], ids=["d-max-text", "liquid-vs-dispersion", "exact-d-max", "sweep-grid",
        "bound-csv", "plan-csv", "sweep-csv", "eval-csv", "eval-T",
        "eval-shape"])
def test_usage_error_messages_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert message in err and out == ""



def test_usage_error_leaves_the_output_file_alone(capsys, tmp_path):
    """The format is refused before --output is opened."""
    path = tmp_path / "kept"
    path.write_bytes(b"an earlier run\n")
    code, out, err = run_cli(capsys, "bound", "--dispersion", "rossby-sphere",
                             "--T", "8", "--format", "csv",
                             "--output", str(path))
    assert code == 2
    assert "csv output is not defined" in err and out == ""
    assert path.read_bytes() == b"an earlier run\n"


SHARED_OPTIONS = ["-h", "--help", "--dispersion", "--liquid", "--mu-nu",
                  "--g", "--alpha", "--lx", "--ly", "--plane-form",
                  "--config", "--format", "--output", "--no-header"]
DOMAIN_OPTIONS = SHARED_OPTIONS + ["--T", "--shape"]
SCAN_OPTIONS = DOMAIN_OPTIONS + ["--patterns", "--closure"]


def test_main_builds_its_parser_once(capsys, monkeypatch):
    """Every other golden case, with a failed parse among them: one parser
    serves every call, each writes its golden bytes, and the failure
    (exit 2) leaves the parser as it was."""
    built = []

    def counted():
        built.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    cases = sorted(CASES)[1::2]
    assert {CASES[c][0] for c in cases} == {
        "find-triads", "classify", "bound", "plan", "sweep", "eval"}
    for n, case in enumerate(cases):
        if n == 5:
            assert run_cli(capsys, "find-triads", "--T", "ten")[0] == 2
        code, out, err = run_cli(capsys, *CASES[case])
        assert code == 0, err
        assert out.encode() == (GOLDEN / case).read_bytes(), case
    assert len(built) == 1
    assert build_parser() is not build_parser()  # still a fresh parser


def test_each_subcommand_takes_exactly_its_options():
    ap = build_parser()
    subparsers = next(a for a in ap._actions
                      if isinstance(a, argparse._SubParsersAction))
    got = {name: sorted(s for action in p._actions
                        for s in action.option_strings)
           for name, p in subparsers.choices.items()}
    assert got == {
        "find-triads": sorted(SCAN_OPTIONS + ["--d-max", "--d-min",
                                              "--exact"]),
        "classify": sorted(SCAN_OPTIONS + ["--omega-max", "--n-selection",
                                           "--bridge-mode"]),
        "bound": sorted(DOMAIN_OPTIONS),
        "plan": sorted(DOMAIN_OPTIONS + ["--d-max", "--d-min", "--epsilon"]),
        "sweep": sorted(DOMAIN_OPTIONS + ["--lx-values", "--ly-values",
                                          "--d-max", "--omega-max"]),
        "eval": sorted(SHARED_OPTIONS + ["--m", "--n"]),
    }


@pytest.mark.parametrize("argv", [
    ["find-triads", "--liquid", "water", "--T", "6", "--d-max", "nan"],
    ["find-triads", "--liquid", "water", "--T", "6", "--d-max", "inf"],
    ["find-triads", "--liquid", "water", "--T", "6", "--d-min", "inf"],
    ["classify", "--dispersion", "rossby-sphere", "--T", "6",
     "--omega-max", "nan"],
    ["plan", "--liquid", "water", "--T", "6", "--d-min", "inf"],
    ["sweep", "--liquid", "water", "--T", "6", "--lx-values", "1",
     "--ly-values", "1", "--omega-max", "nan"],
], ids=["near-nan", "near-inf", "maxd-inf", "classify-nan", "plan-inf",
        "sweep-nan"])
def test_non_finite_threshold_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "must be finite" in err and out == ""


@pytest.mark.parametrize("argv", [
    ["sweep", "--liquid", "water", "--T", "5", "--lx-values", "nan",
     "--ly-values", "1"],
    ["find-triads", "--liquid", "water", "--T", "5", "--lx", "nan",
     "--ly", "1"],
    ["find-triads", "--dispersion", "gravity-capillary", "--T", "5",
     "--mu-nu", "nan"],
    ["find-triads", "--liquid", "water", "--T", "5", "--g", "inf"],
    ["plan", "--liquid", "water", "--T", "5", "--epsilon", "nan",
     "--format", "json"],
    ["plan", "--liquid", "water", "--T", "12", "--d-max", "0.1",
     "--d-min", "0.5", "--epsilon", "-0"],
    ["eval", "--liquid", "water", "--m", str(10 ** 200), "--n", "1"],
    ["eval", "--dispersion", "bve-plane", "--m", str(10 ** 400), "--n", "1"],
    ["eval", "--dispersion", "gravity-tanh", "--alpha", "1", "--m",
     str(10 ** 400), "--n", "1"],
    ["eval", "--dispersion", "capillary", "--m", str(10 ** 160), "--n", "1"],
    ["eval", "--liquid", "water", "--m", "3", "--n", "4", "--lx", "1e-300",
     "--ly", "1e-300"],
    ["eval", "--dispersion", "rossby-sphere", "--m", str(10 ** 400), "--n",
     "3", "--format", "json"],
], ids=["sweep-lx", "find-lx", "find-mu-nu", "find-g", "plan-epsilon",
        "plan-epsilon-negative-zero", "eval-int-too-large", "eval-bve-plane",
        "eval-gravity-tanh", "eval-range-error", "eval-area-underflow",
        "eval-sphere-float-fields"])
def test_non_finite_physical_parameter_exit_3(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert err.startswith("domain error:") and out == ""


@pytest.mark.parametrize("argv", [
    ["find-triads", "--dispersion", "rossby-sphere", "--T", "14",
     "--closure", "box", "--d-max", "1e-9"],
    ["classify", "--dispersion", "rossby-sphere", "--T", "10",
     "--omega-max", "0.03", "--closure", "both"],
    ["bound", "--liquid", "water", "--T", "4", "--shape", "triangular"],
], ids=["sphere-box", "sphere-both", "bound-triangular"])
def test_unsupported_closure_or_shape_exit_2(capsys, argv):
    """The sphere's exact path is zonal-only and the component-wise closure
    takes only square domains; neither may print results under a header
    that names another convention."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "usage error" in err and out == ""

@pytest.mark.parametrize("extra", [
    ["--closure", "box", "--patterns", "all"],
    ["--closure", "both"],
    ["--closure", "box"],
    ["--patterns", "all"],
], ids=["box-all", "both", "box", "all"])
def test_exact_rejects_other_conventions_exit_2(capsys, extra):
    """The exact search is zonal closure under the sum pattern; any other
    --closure/--patterns would be dropped but written into the header."""
    code, out, err = run_cli(capsys, "find-triads", "--dispersion",
                             "rossby-sphere", "--T", "14", "--exact", *extra)
    assert code == 2
    assert "usage error" in err and out == ""


def test_exact_accepts_its_own_convention(capsys):
    argv = ["find-triads", "--dispersion", "rossby-sphere", "--T", "14",
            "--exact", "--format", "csv", "--no-header"]
    code, default, _ = run_cli(capsys, *argv)
    assert code == 0
    code, spelled, _ = run_cli(capsys, *argv, "--closure", "zonal",
                               "--patterns", "sum")
    assert code == 0 and spelled == default


@pytest.mark.parametrize("extra", [
    ["--lx", "2", "--ly", "3", "--mu-nu", "16", "--g", "500"],
    ["--mu-nu", "16"], ["--g", "500"], ["--alpha", "0.5"], ["--lx", "2"],
    ["--ly", "3"], ["--plane-form", "printed"], ["--plane-form", "squared"],
], ids=["four", "mu-nu", "g", "alpha", "lx", "ly", "plane-printed",
        "plane-squared"])
def test_config_rejects_dispersion_flags_exit_2(capsys, tmp_path, extra):
    """A --config file defines the whole dispersion; a flag beside it would
    be ignored."""
    cfg = tmp_path / "water.json"
    cfg.write_text(json.dumps(DispersionSpec(
        "gravity_capillary", mu_over_nu=75.0).to_config()))
    code, out, err = run_cli(capsys, "eval", "--config", str(cfg), *extra,
                             "--m", "3", "--n", "4")
    assert code == 2
    assert "--config conflicts with" in err and out == ""


@pytest.mark.parametrize("cfg, refused", [
    ({"kind": "capillary", "alpha": 0.5, "mu_over_nu": 3.0},
     "capillary does not take mu_over_nu, alpha"),
    ({"kind": "gravity_tanh", "alpha": 0.5, "g": 500.0},
     "gravity_tanh does not take g"),
    ({"kind": "gravity_capillary", "mu_over_nu": 75.0,
      "plane_form": "squared"}, "gravity_capillary does not take plane_form"),
    ({"kind": "rossby_sphere",
      "basin": {"kind": "rectangle", "lx": 2.0, "ly": 1.0}},
     "rossby_sphere does not take basin lx"),
], ids=["capillary", "tanh-g", "plane-form", "sphere-sides"])
def test_config_keys_the_kind_ignores_exit_2(capsys, tmp_path, cfg, refused):
    """A --config file obeys the rule of the dispersion flags: a key its
    kind does not read is refused, not written into the header."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "find-triads", "--config", str(path),
                             "--T", "6")
    assert code == 2 and out == ""
    assert f"usage error: {refused}\n" == err


@pytest.mark.parametrize("golden", sorted(
    p.name for p in (Path(__file__).parent / "golden").glob("*.json")))
def test_golden_header_dispersion_loads_as_config(capsys, tmp_path, golden):
    """Every header's dispersion block is a valid --config file: it writes
    "g": 981.0 and a 1 x 1 basin for every kind."""
    doc = json.loads((Path(__file__).parent / "golden" / golden).read_text())
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc["config"]["dispersion"]))
    code, out, err = run_cli(capsys, "eval", "--config", str(path),
                             "--m", "1", "--n", "2", "--format", "json")
    assert code == 0, err
    assert json.loads(out)["config"]["dispersion"] == \
        doc["config"]["dispersion"]


def test_plane_form_defaults_to_printed(capsys):
    argv = ["eval", "--dispersion", "bve-plane", "--m", "1", "--n", "2",
            "--format", "json"]
    code, default, _ = run_cli(capsys, *argv)
    assert code == 0
    code, printed, _ = run_cli(capsys, *argv, "--plane-form", "printed")
    assert code == 0 and printed == default
    assert json.loads(default)["config"]["dispersion"]["plane_form"] == \
        "printed"


def test_bound_float_dispersion_json(capsys):
    code, out, err = run_cli(capsys, "bound", "--liquid", "water", "--T", "8",
                             "--format", "json")
    assert code == 0, err
    witness = json.loads(out)["result"]["finite_domain_min"]["witness"]
    assert witness["m1"] + witness["m2"] == witness["m3"]


# Renderers of each format, per command; the JSON renderers also use
# write_json.  plan has no CSV form.
RENDERERS = {
    "find-triads": {"json": "write_json", "csv": "write_triads_csv",
                    "table": "write_triads_table"},
    "classify": {"json": "partition_to_records",
                 "csv": "write_partition_csv",
                 "table": "write_partition_table"},
    "plan": {"json": "plan_to_record", "table": "write_plan_table"},
}
COMMAND_ARGS = {
    "find-triads": ["--liquid", "benzaldehyde", "--T", "8", "--d-min", "0.5"],
    "classify": ["--dispersion", "rossby-sphere", "--T", "8",
                 "--omega-max", "0.03"],
    "plan": ["--liquid", "water", "--T", "8", "--d-max", "1e-5"],
}


@pytest.mark.parametrize("command,fmt", [
    (command, fmt) for command in sorted(RENDERERS)
    for fmt in ("json", "csv", "table") if fmt in RENDERERS[command]])
def test_only_requested_format_is_rendered(capsys, monkeypatch, command, fmt):
    def unrequested(*args, **kwargs):
        raise AssertionError("rendered a format that was not requested")

    for other, name in RENDERERS[command].items():
        if other != fmt:
            monkeypatch.setattr(report, name, unrequested)
    if fmt != "json":
        monkeypatch.setattr(report, "write_json", unrequested)
    code, out, err = run_cli(capsys, command, *COMMAND_ARGS[command],
                             "--format", fmt)
    assert code == 0, err
    assert out


def test_io_error_exit_4(capsys, tmp_path):
    code, _, err = run_cli(capsys, "eval", "--dispersion", "rossby-sphere",
                           "--m", "1", "--n", "2",
                           "--output", str(tmp_path / "no" / "dir" / "x"))
    assert code == 4
    assert "i/o error" in err


def test_config_file_round_trip(capsys, tmp_path):
    cfg = tmp_path / "spec.json"
    cfg.write_text(json.dumps(DispersionSpec(
        "gravity_capillary", mu_over_nu=16.0).to_config()))
    code, out, _ = run_cli(capsys, "find-triads", "--config", str(cfg),
                           "--T", "30", "--d-max", "1e-5", "--format", "csv",
                           "--no-header")
    assert code == 0
    code, direct, _ = run_cli(capsys, "find-triads", "--liquid",
                              "benzaldehyde", "--T", "30", "--d-max", "1e-5",
                              "--format", "csv", "--no-header")
    assert out == direct


def test_config_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"kind": "capillary", "zzz": 1}))
    code, _, err = run_cli(capsys, "eval", "--config", str(cfg),
                           "--m", "1", "--n", "1")
    assert code == 3
    assert "unknown configuration keys" in err


@pytest.mark.parametrize("text, message", [
    ("{not json", "cfg.json: Expecting property name"),
    ("[1, 2]", "must be an object, got list"),
    ('"x"', "must be an object, got str"),
    ("{}", "'kind' is missing"),
    ('{"kind": "capillary", "basin": "sphere"}', "'basin' must be an object"),
    ('{"kind": "gravity_capillary", "mu_over_nu": "abc"}',
     "'mu_over_nu' must be a number"),
    ('{"kind": "capillary", "basin": {"kind": "sphere"}}',
     "capillary has no relation on a sphere basin"),
], ids=["not-json", "list", "string", "no-kind", "basin-string",
        "mu-nu-string", "float-kind-sphere"])
def test_malformed_config_is_a_domain_error_exit_3(capsys, tmp_path, text,
                                                   message):
    """A --config file that is not a dispersion object fails with the
    CLI's own error, naming the file or the key, not with a traceback."""
    path = tmp_path / "cfg.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "eval", "--config", str(path),
                             "--m", "1", "--n", "2")
    assert code == 3 and out == ""
    assert err.startswith("domain error: ") and message in err


def test_sweep_and_plan_and_bound_run(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "plan", "--liquid", "water", "--T", "20",
                           "--d-max", "1e-5", "--d-min", "0.1",
                           "--epsilon", "0.1", "--format", "json")
    assert code == 0 and json.loads(out)["result"]["epsilon"] == 0.1
    code, out, _ = run_cli(capsys, "sweep", "--liquid", "benzaldehyde",
                           "--T", "12", "--lx-values", "1,2",
                           "--ly-values", "1", "--d-max", "1e-4",
                           "--format", "json")
    assert code == 0 and len(json.loads(out)["result"]["cells"]) == 2
    code, out, _ = run_cli(capsys, "bound", "--dispersion", "rossby-sphere",
                           "--T", "14", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert "finite_domain_min" in doc["result"]
    assert "apriori" in doc["result"]


# -- serialisation details ----------------------------------------------------

def test_csv_column_order(square_t30):
    triads = find_near_triads(gc_spec(75), square_t30, 1e-5)
    header = triads_to_csv(triads).splitlines()[0]
    assert header == ",".join(TRIAD_COLUMNS)


def test_rational_serialisation(sphere, sphere_t14):
    from wavetriads import find_exact_triads
    triads = find_exact_triads(sphere, sphere_t14)
    recs = [triad_to_record(t) for t in triads]
    assert recs[0]["discrepancy"] == "0/1"
    assert recs[0]["discrepancy_float"] == 0.0
    assert "/" in recs[0]["omega1"]
    header = triads_to_csv(triads).splitlines()[0]
    assert header == ",".join(TRIAD_COLUMNS + RATIONAL_EXTRA_COLUMNS)


def test_signs_serialisation(square_t30):
    recs = [triad_to_record(t)
            for t in find_near_triads(gc_spec(75), square_t30, 1e-5)]
    assert recs[0]["signs"] == "++-"


@pytest.mark.parametrize("argv", [
    ["find-triads", "--dispersion", "rossby-sphere", "--lx", "2", "--ly", "3",
     "--T", "5", "--exact"],
    ["find-triads", "--liquid", "water", "--plane-form", "squared",
     "--T", "5"],
    ["eval", "--liquid", "water", "--alpha", "3", "--m", "3", "--n", "4"],
    ["eval", "--dispersion", "capillary", "--mu-nu", "16", "--m", "1",
     "--n", "1"],
    ["eval", "--dispersion", "rossby-sphere", "--g", "500", "--m", "1",
     "--n", "2"],
    ["find-triads", "--dispersion", "gravity-tanh", "--alpha", "0.5",
     "--g", "500", "--T", "5"],
], ids=["sphere-basin", "plane-form", "alpha", "mu-nu", "g-sphere", "g-tanh"])
def test_flags_the_kind_ignores_exit_2(capsys, argv):
    """A dispersion flag the chosen kind has no use for would be dropped
    (or written into the header of a relation that ignores it)."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "does not take" in err and out == ""
