"""Config parsing, CSV emission and the command-line entry point."""

from __future__ import annotations

import io
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

import latticebound
from latticebound import atlas, cli
from latticebound.cli import (CSV_HEADER, RunConfig, emit_csv, main,
                              parse_config)
from latticebound.core import TorusPoint
from latticebound.errors import ParseError, ValidationError


# ---------------------------------------------------------------------------
# config documents


def test_parse_config_fills_defaults():
    cfg = parse_config("gamma = 1.0\nlambda = -1\nmu = 0\n")
    assert (cfg.gamma, cfg.lam, cfg.mu) == (1.0, -1.0, 0.0)
    assert cfg.grid_N == 256
    assert cfg.workers == 1
    # the count table has one reading and the edge constants one source, so
    # no key selects a convention or a constants source
    with pytest.raises(ParseError, match="unknown key 'convention'"):
        parse_config("convention = printed\n")
    with pytest.raises(ParseError, match="unknown key 'constants_source'"):
        parse_config("constants_source = paper\n")


def test_empty_config_is_all_defaults():
    assert parse_config("") == RunConfig()


def test_parse_config_comments_and_blank_lines():
    text = "# a comment\n\ngamma = 2.0   # trailing\n\nmu = 3\n"
    cfg = parse_config(text)
    assert (cfg.gamma, cfg.mu) == (2.0, 3.0)


def test_parse_config_unknown_key_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_config("gamma = 1\n\nquux = 3\n")
    assert err.value.line == 3
    assert "quux" in str(err.value)


def test_parse_config_missing_equals_sign():
    with pytest.raises(ParseError) as err:
        parse_config("gamma 1.0\n")
    assert err.value.line == 1


def test_parse_config_bad_value():
    with pytest.raises(ParseError) as err:
        parse_config("gamma = one\n")
    assert err.value.line == 1
    assert "gamma" in str(err.value)


def test_parse_config_lets_converter_bugs_propagate(monkeypatch):
    # only a ValueError is a bad value; a converter failing otherwise is a bug
    def broken(text):
        raise TypeError("converter bug")

    monkeypatch.setitem(cli._SETTINGS, "gamma", ("--gamma", "gamma", broken, "mass ratio"))
    with pytest.raises(TypeError, match="converter bug"):
        parse_config("gamma = 1\n")


def test_parse_config_rejects_out_of_range_values():
    with pytest.raises(ValidationError) as err:
        parse_config("gamma = -2\n")
    assert err.value.field == "gamma"
    with pytest.raises(ValidationError) as err:
        parse_config("workers = 0\n")
    assert err.value.field == "workers"
    with pytest.raises(ValidationError) as err:
        parse_config("lambda_range = 3:-3\n")
    assert err.value.field == "lambda_range"


def test_parse_config_structured_values():
    text = ("lambda_range = -2:3\n"
            "mu_range = 0:1\n"
            "step = 0.5\n"
            "K_list = 0,0;1,0.5\n"
            "out = rows.csv\n")
    cfg = parse_config(text)
    assert cfg.lambda_range == (-2.0, 3.0)
    assert cfg.mu_range == (0.0, 1.0)
    assert cfg.K_list == ((0.0, 0.0), (1.0, 0.5))
    assert cfg.out == "rows.csv"


# ---------------------------------------------------------------------------
# CSV emission


def test_emit_csv_header_only_for_no_rows():
    buf = io.StringIO()
    emit_csv([], buf)
    assert buf.getvalue() == CSV_HEADER + "\n"


def test_emit_csv_zero_coupling_row():
    rows = atlas.sweep((0.0, 0.0), (0.0, 0.0), 1.0)
    buf = io.StringIO()
    emit_csv(rows, buf)
    header, line, tail = buf.getvalue().split("\n")
    assert header == CSV_HEADER
    assert line == "0,0,1,0,0,S0,D0,C0+b,C0-b,0,0,0,0,,,true,"
    assert tail == ""


def test_emit_csv_to_path_uses_lf_only(tmp_path):
    rows = atlas.sweep((1.0, 1.0), (10.0, 10.0), 1.0)
    target = tmp_path / "rows.csv"
    emit_csv(rows, str(target))
    raw = target.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert len(cells) == len(CSV_HEADER.split(","))
    assert cells[:2] == ["1", "10"]
    assert cells[15] == "true"
    # four above-band eigenvalues, semicolon-joined inside one cell
    assert len(cells[14].split(";")) == 4


def _reference_csv(rows) -> str:
    # the CSV cell by cell: every number through format(float(x), ".12g"),
    # every error through _sanitize, the states joined by ";"
    def fmt(x) -> str:
        return format(float(x), ".12g")

    lines = [CSV_HEADER]
    for r in rows:
        lbl, pred = r.label, r.pred
        lines.append(",".join([
            fmt(r.lam), fmt(r.mu), fmt(r.gamma), fmt(r.K.p1), fmt(r.K.p2),
            lbl.s_region if lbl else "", lbl.d_region if lbl else "",
            lbl.c_plus if lbl else "", lbl.c_minus if lbl else "",
            str(pred.n_below_k0) if pred else "", str(pred.n_above_k0) if pred else "",
            str(r.comp_below) if r.comp_below is not None else "",
            str(r.comp_above) if r.comp_above is not None else "",
            ";".join(fmt(z) for z in r.eigs_below), ";".join(fmt(z) for z in r.eigs_above),
            "true" if r.agree else "false", cli._sanitize(r.error)]))
    return "\n".join(lines) + "\n"


def _csv(rows) -> str:
    buf = io.StringIO()
    emit_csv(rows, buf)
    return buf.getvalue()


def test_emit_csv_is_the_cell_by_cell_text():
    # a sweep over the origin, the origin as (-0.0, 0) and a general fiber;
    # a row beyond the coupling range, whose error holds a comma; and
    # hand-made rows: no label, an error with a newline, a carriage return
    # and commas, tiny and huge states, an integer gamma, zero counts
    fibers = [TorusPoint(0.0, 0.0), TorusPoint(-0.0, 0.0), TorusPoint(1.0, 0.5)]
    rows = atlas.sweep((-3.0, 3.0), (-3.0, 3.0), 1.0, K_list=fibers)
    beyond = atlas.sweep((1e200, 1e200), (0.0, 0.0), 1.0)
    assert "," in beyond[0].error
    made = [
        replace(rows[10], label=None, error="line\nbreak,\rreturn, comma"),
        replace(rows[5], gamma=3, eigs_below=(-1e16, -1e-13), eigs_above=(1e-13, 1e16)),
        replace(rows[7], pred=None, comp_below=0, comp_above=0, eigs_below=(), agree=False),
        replace(beyond[0], K=TorusPoint(-0.0, -0.0), lam=-0.0, mu=1e-300),
    ]
    for case in (rows, beyond, made, rows + beyond + made):
        assert _csv(case) == _reference_csv(case)
    assert _csv(made).splitlines()[1].endswith(",line break; return; comma")


# ---------------------------------------------------------------------------
# entry point


def test_no_arguments_is_a_usage_error():
    assert main([]) == 2


def test_importing_the_cli_loads_no_scipy_optimize():
    # the package finds its roots with its own engine, so a fresh
    # interpreter that imports the command line holds no scipy.optimize
    root = str(Path(latticebound.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import latticebound.cli; "
            "print(latticebound.cli.__file__); print(sorted(m for m in sys.modules "
            "if m == 'scipy.optimize' or m.startswith('scipy.optimize.')))")
    run = subprocess.run([sys.executable, "-c", code, root], capture_output=True, text=True,
                         check=True)
    where, loaded = run.stdout.splitlines()
    assert where == cli.__file__
    assert loaded == "[]"


def test_help_exits_cleanly():
    assert main(["--help"]) == 0


def test_edges_command(capsys):
    assert main(["edges", "--gamma", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "E_min = 0" in out and "E_max = 8" in out


def test_integrals_command(capsys):
    assert main(["integrals", "--z", "-1.0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("a = ")
    assert "z = -1\n" in out


def test_integrals_side_delta_form(capsys):
    assert main(["integrals", "--side", "above", "--delta", "1e-6"]) == 0
    assert "z = 8.000001" in capsys.readouterr().out


def test_integrals_at_a_huge_distance(capsys):
    # the moments decay like 1/(g eps) and finer; nothing overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["integrals", "--side", "below", "--delta", "1e160"]) == 0
    out = capsys.readouterr().out
    assert "a = 1e-160" in out and "f = 5e-161" in out        # g = 2


def test_integrals_without_energy_is_a_config_error(capsys):
    assert main(["integrals"]) == 2
    assert "need either z" in capsys.readouterr().err


def test_det_command(capsys):
    code = main(["det", "--z", "9.0", "--lambda", "1", "--mu", "10"])
    assert code == 0
    out = capsys.readouterr().out
    assert "even_main" in out and "det = " in out


@pytest.mark.parametrize("args,out", [
    (["--z", "9.0", "--lambda", "1", "--mu", "10"],
     "even_main = -0.605295840631\neven_sub  = -0.0488094282545\n"
     "odd       = 0.0294345271742\ndet = 0.00086961790664\n"),
    (["--z", "9.5", "--lambda", "6", "--mu", "10", "--K", "1.0,0.5"],
     "det = -1.87666037177e-07\n"),
])
def test_det_output_is_pinned(capsys, args, out):
    # one zero fiber (three factors and the full determinant), one general
    assert main(["det"] + args) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("command", [["spectrum"], ["det", "--z", "9"]])
def test_zero_fiber_dispatch_reads_the_wrapped_fiber(capsys, command):
    # K = (2 pi, 0) is the zero fiber: the same factor labels and factor
    # lines as K = (0, 0), not the general path
    args = command + ["--gamma", "1", "--lambda", "1", "--mu", "10", "--K"]
    assert main(args + ["0,0"]) == 0
    at_origin = capsys.readouterr().out
    assert main(args + ["6.283185307179586,0"]) == 0
    assert capsys.readouterr().out == at_origin
    assert "[odd]" in at_origin or "odd       =" in at_origin


@pytest.mark.parametrize("z", ["1e300", "-1e-300"])
def test_det_that_fails_prints_nothing(capsys, z):
    # at K = 0 the three factors read these distances without complaint and
    # the 5x5 determinant fails: the failure leaves no factor lines behind
    assert main(["det", "--lambda", "1", "--mu", "1", f"--z={z}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: distance 1e")


def test_det_inside_band_maps_to_numerical_failure(capsys):
    assert main(["det", "--z", "1.0", "--lambda", "1", "--mu", "1"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_spectrum_command(capsys):
    assert main(["spectrum", "--lambda", "1", "--mu", "10"]) == 0
    out = capsys.readouterr().out
    assert "above (4)" in out
    assert "x2[odd]" in out
    assert "below: none" in out


def test_spectrum_rejects_the_constants_source(capsys):
    # a pinned state just below the band: the published table once moved it
    # (to -5.3e-12 instead of -9.3e-12); the spectrum is the operator's alone,
    # so the command takes no constants source
    fiber = ["spectrum", "--gamma", "2.5005130961117974",
             "--lambda", "8.014728996633973", "--mu", "-2.286876893573355"]
    assert main(fiber) == 0
    assert "(edge-model)" in capsys.readouterr().out
    assert main(fiber + ["--source", "published"]) == 2
    assert "unrecognized arguments: --source published" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["edges", "--source", "published"],
    ["integrals", "--z", "-1", "--source", "published"],
    ["det", "--z", "9", "--source", "published"],
    ["spectrum", "--source", "published"],
    ["oracle", "--source", "published"],
    ["integrals", "--z", "-1", "--K", "1,0.5"],   # the moments are K = 0 only
    ["classify", "--K", "1,0.5"],                 # the regions do not depend on K
    ["sweep", "--K", "1,0.5"],                    # a sweep reads --K-list,
    ["sweep", "--lambda", "1"],                   # --lambda-range
    ["sweep", "--mu", "1"],                       # and --mu-range
    ["classify", "--source", "computed"],         # one set of edge constants
    ["sweep", "--source", "published"],
])
def test_flags_that_the_command_does_not_read_are_usage_errors(capsys, argv):
    assert main(argv) == 2
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err


def test_spectrum_rejects_bad_gamma(capsys):
    assert main(["spectrum", "--gamma", "-1"]) == 2
    assert "gamma" in capsys.readouterr().err


def test_spectrum_rejects_a_tolerance_the_solvers_reject(capsys):
    # every solve is closed form or a fixed rule: no solver takes a tolerance,
    # and neither the command line nor a config file sets one
    assert main(["spectrum", "--lambda", "1", "--mu", "10", "--tol", "1e-10"]) == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    with pytest.raises(ParseError, match="unknown key 'rel_tol'"):
        parse_config("rel_tol = 1e-10\n")


def test_classify_command(capsys):
    assert main(["classify", "--lambda", "6", "--mu", "10"]) == 0
    out = capsys.readouterr().out
    assert "C2+" in out
    assert "above = 5" in out
    assert "(above exact)" in out


def test_classify_prints_signed_zero_slopes(capsys):
    # S+ keeps its own expression: read as -S-(-lam, -mu) the exact +0.0 at
    # the origin would print as "S+ = -0"
    for lam, mu, text in (("0", "0", "(S+ = 0, S- = 0)"), ("-0.0", "-0.0", "(S+ = -0, S- = 0)")):
        assert main(["classify", f"--lambda={lam}", f"--mu={mu}"]) == 0
        assert text in capsys.readouterr().out


def test_oracle_command(capsys):
    assert main(["oracle", "--lambda", "0", "--mu", "-12", "--N", "64"]) == 0
    assert "below (4)" in capsys.readouterr().out


def test_oracle_window_too_wide_is_a_numerical_failure(capsys):
    # its mesh would never end; the window check fails it at once
    assert main(["oracle", "--lambda", "1e17", "--N", "16"]) == 3
    assert "numerical failure: grid oracle" in capsys.readouterr().err


@pytest.mark.parametrize("argv,code", [
    (["spectrum", "--lambda", "1e200"], 3),
    (["spectrum", "--lambda", "1e200", "--K", "1,0.5"], 3),
    (["sweep", "--lambda-range=1e200:1e200", "--mu-range=0:0", "--step", "1"], 0),
    (["edges", "--gamma", "1e300"], 2),
    (["det", "--gamma", "1e300", "--z", "-1", "--K", "1,0.5"], 2),
    (["oracle", "--gamma", "1e300", "--N", "16"], 2),
    (["sweep", "--gamma", "1e300", "--lambda-range=0:1", "--mu-range=0:1", "--step", "1",
      "--K-list", "1,0.5"], 2),
    (["det", "--lambda", "1e200", "--mu", "1e200", "--z", "-1"], 3),
    (["det", "--lambda", "1e200", "--mu", "1e200", "--z", "-1", "--K", "1,0.5"], 3),
])
def test_out_of_range_inputs_fail_typed(capsys, argv, code):
    # couplings beyond the solvers' range are numerical failures, a gamma
    # beyond GAMMA_MAX a configuration error; a sweep puts the failure in
    # its row
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == 3:
        assert captured.err.startswith("numerical failure: (|lam| + 2|mu| + 1) / g")
    elif code == 2:
        assert captured.err.startswith("configuration error: gamma: must be positive")
    else:
        assert ",false,ToleranceError: (|lam| + 2|mu| + 1) / g" in captured.out


def test_oracle_rejects_an_odd_grid(capsys):
    assert main(["oracle", "--N", "65"]) == 2
    assert "grid_N" in capsys.readouterr().err


def test_oracle_dense_command(capsys):
    assert main(["oracle", "--dense", "--N", "32",
                 "--lambda", "1", "--mu", "10"]) == 0
    assert "above (4)" in capsys.readouterr().out


def test_sweep_to_stdout(capsys):
    code = main(["sweep", "--lambda-range=-1:1", "--mu-range=-1:1",
                 "--step", "1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 9


def test_sweep_to_file(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    code = main(["sweep", "--lambda-range=0:1", "--mu-range=0:1",
                 "--step", "1", "--out", str(target)])
    assert code == 0
    assert "4 rows" in capsys.readouterr().out
    assert target.read_text().splitlines()[0] == CSV_HEADER


def test_sweep_requires_ranges(capsys):
    assert main(["sweep", "--step", "1"]) == 2
    assert "lambda_range" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma = 1.0\nlambda = 6\nmu = 10\n")
    assert main(["--config", str(cfg), "classify"]) == 0
    assert "above = 5" in capsys.readouterr().out
    # a flag beats the file
    assert main(["--config", str(cfg), "classify", "--lambda", "1"]) == 0
    assert "above = 4" in capsys.readouterr().out


def test_missing_config_file(capsys):
    assert main(["--config", "/no/such/file.cfg", "edges"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_classify_reads_the_one_set_of_edge_constants(capsys, tmp_path):
    assert main(["classify", "--lambda", "1", "--mu", "4"]) == 0
    out = capsys.readouterr().out
    assert "thresholds: t_s = 7.31958" in out
    assert "above = 1" in out
    cfg = tmp_path / "run.cfg"
    cfg.write_text("constants_source = computed\n")
    assert main(["--config", str(cfg), "classify"]) == 2
    assert "unknown key 'constants_source'" in capsys.readouterr().err


@pytest.mark.parametrize("argv,field", [
    (["sweep", "--lambda-range=0:1", "--mu-range=0:1", "--step", "nan"], "step"),
    (["sweep", "--lambda-range=0:1", "--mu-range=0:1", "--step", "inf"], "step"),
    (["det", "--z", "nan"], "z"),
    (["integrals", "--z", "nan"], "z"),
    (["integrals", "--z=-inf"], "z"),
    (["integrals", "--side", "below", "--delta", "nan"], "delta"),
])
def test_non_finite_step_and_energies_are_configuration_errors(capsys, argv, field):
    assert main(argv) == 2
    assert f"configuration error: {field}: must be finite" in capsys.readouterr().err


def test_non_finite_step_in_a_config_file():
    with pytest.raises(ValidationError) as err:
        parse_config("step = nan\n")
    assert err.value.field == "step"


def test_verify(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "[ok]" in out and "[FAIL]" not in out
    assert "16/16 checks passed" in out
    # the closed-form moments and the general-fiber curves against
    # independent grid sums
    lines = out.splitlines()
    assert any(line.startswith("[ok] moments vs grid sum") for line in lines)
    assert any(line.startswith("[ok] general-fiber curves vs grid sum") for line in lines)
    # every check always runs: there is no shorter mode
    assert main(["verify", "--quick"]) == 2
