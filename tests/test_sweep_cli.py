import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pumpedsu11 import (ConfigError, emit, optimal_phases, optimal_tritter_angle,
                        parse_config, qfi_numeric, run_sweep, sensitivity_number_sum)
from pumpedsu11.cli import main
from pumpedsu11 import sweep
from pumpedsu11.sweep import DEFAULTS, GRID_CAP, GW_COLUMNS, SweepTable, _build_config
from conftest import child_env, emit_rowwise


def write(tmp_path, text, name="run.conf"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_minimal_config_applies_defaults(tmp_path):
    spec = parse_config(write(tmp_path, "channel = squeezing\nr = 0.5\n"))
    assert spec.kind == "interferometer"
    assert spec.base["r"] == 0.5
    for key, value in DEFAULTS.items():
        if key != "r":
            assert spec.base[key] == value
    assert spec.sweeps == ()


def test_parse_unknown_key_names_the_key(tmp_path):
    path = write(tmp_path, "channel = squeezing\nthetaa = 0.3\n")
    with pytest.raises(ConfigError, match="thetaa"):
        parse_config(path)


def test_parse_reports_line_numbers(tmp_path):
    path = write(tmp_path, "channel = squeezing\n\nbogus_line\n")
    with pytest.raises(ConfigError, match=":3"):
        parse_config(path)


def test_parse_sweep_grid(tmp_path):
    text = """channel = squeezing
r = 1.0
nbar = 1000
[sweep]
theta = linspace 0 1.5707963267948966 50
"""
    spec = parse_config(write(tmp_path, text))
    assert spec.grid_size() == 50
    rows = run_sweep(spec)
    assert len(rows) == 50


def test_parse_rejects_invalid_base_point(tmp_path):
    path = write(tmp_path, "channel = squeezing\nr = 3.0\nnbar = 10\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}: base point: .*depleted"):
        parse_config(path)


def test_sweep_may_replace_a_base_value_outside_the_domain(tmp_path, capsys):
    # r = 3 depletes a 100-particle pump, but every swept row replaces it
    path = write(tmp_path, "channel = squeezing\nnbar = 100\nr = 3\ntheta = 0.4\n"
                           "[sweep]\nr = values 0.5 1\n")
    assert main(["sweep", "--config", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert all(line.endswith(",") for line in lines[1:])  # no row has an error


@pytest.mark.parametrize("base, sweep, message", [
    ("channel = bogus\nr = 0.5\n", "r = values 0.5 1", "channel kind"),
    ("channel = squeezing\ntheta = 2\n", "r = values 0.5 1", "tritter angle"),
    ("channel = squeezing\nnbar = 10\nr = 3\n", "theta = values 0.1 0.2", "depleted"),
    ("channel = squeezing\nnbar = -1\n", "r = values 0.5 1", "depleted"),
], ids=["unknown_channel", "theta_range", "depleted_unswept_pair", "no_pump"])
def test_sweep_keeps_the_checks_on_unswept_keys(tmp_path, capsys, base, sweep, message):
    path = write(tmp_path, base + "[sweep]\n" + sweep + "\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}: base point: .*{message}"):
        parse_config(path)
    assert main(["sweep", "--config", path]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {path}: base point: ")


def test_parse_requires_channel(tmp_path):
    with pytest.raises(ConfigError, match="channel"):
        parse_config(write(tmp_path, "r = 0.5\n"))


def test_parse_missing_file():
    with pytest.raises(FileNotFoundError):
        parse_config("/nonexistent/run.conf")


def test_sweep_theta_peaks_near_turning_point(tmp_path):
    sq, tp = optimal_phases("squeezing", 0.0, 0.0)
    text = f"""channel = squeezing
r = 2.0
nbar = 1e6
squeeze_phase = {sq!r}
tritter_phase = {tp!r}
[sweep]
theta = linspace 0.02 1.55 120
[outputs]
quantities = H_closed
"""
    spec = parse_config(write(tmp_path, text))
    rows = run_sweep(spec)
    thetas = [row["theta"] for row in rows]
    values = [row["H_closed"] for row in rows]
    best = thetas[int(np.argmax(values))]
    theta_t = optimal_tritter_angle(1e6, 2 * np.sinh(2.0) ** 2)
    assert abs(best - theta_t) < 0.02  # grid resolution


def test_single_point_sweep_reproduces_qfi(tmp_path):
    text = "channel = mode_mixing\nr = 0.8\nnbar = 500\ntheta = 0.6\n"
    spec = parse_config(write(tmp_path, text))
    rows = run_sweep(spec)
    assert len(rows) == 1
    assert rows[0]["error"] == ""
    assert rows[0]["H_numeric"] == qfi_numeric(_build_config(spec.base))


def test_sweep_eps0_leaves_qfi_constant(tmp_path):
    text = """channel = squeezing
r = 1.0
nbar = 1e4
theta = 0.4
[sweep]
eps0 = values 0.001 0.01 0.1
[outputs]
quantities = H_numeric F0
"""
    rows = run_sweep(parse_config(write(tmp_path, text)))
    h = [row["H_numeric"] for row in rows]
    assert max(h) - min(h) < 1e-6 * h[0]


def test_sweep_row_failures_do_not_abort(tmp_path):
    text = """channel = squeezing
nbar = 30
theta = 0.2
[sweep]
r = values 0.5 2.5
[outputs]
quantities = H_numeric
"""
    rows = run_sweep(parse_config(write(tmp_path, text)))
    assert rows[0]["error"] == "" and rows[0]["H_numeric"] is not None
    assert "depleted" in rows[1]["error"] and rows[1]["H_numeric"] is None


def test_emit_csv_shape_and_roundtrip(tmp_path):
    table = run_sweep(parse_config(write(
        tmp_path, "channel = squeezing\nr = 0.7\nnbar = 200\ntheta = 0.5\n")), table=True)
    rows = table.rows()
    text = emit(table, "csv")
    lines = text.strip().split("\n")
    assert len(lines) == 2
    assert lines[0] == "H_numeric,H_closed,F0,mean_S,var_S,theta_t,error"
    values = lines[1].split(",")
    assert float(values[0]) == pytest.approx(rows[0]["H_numeric"], rel=1e-12)


def test_emit_json_matches_csv_values(tmp_path):
    spec = parse_config(write(tmp_path, """channel = squeezing
r = 0.7
nbar = 200
[sweep]
theta = values 0.2 0.9
"""))
    table = run_sweep(spec, table=True)
    csv_text = emit(table, "csv")
    json_rows = json.loads(emit(table, "json"))
    header = csv_text.strip().split("\n")[0].split(",")
    for line, record in zip(csv_text.strip().split("\n")[1:], json_rows):
        for key, cell in zip(header, line.split(",")):
            if cell == "":
                assert record[key] is None
            elif key != "error":
                assert record[key] == float(cell)


def test_emit_is_deterministic(tmp_path):
    spec = parse_config(write(tmp_path, """channel = mode_mixing
r = 0.5
nbar = 100
[sweep]
theta = linspace 0.1 1.2 5
"""))
    first = emit(run_sweep(spec, table=True), "csv")
    second = emit(run_sweep(spec, table=True), "csv")
    assert first == second


def test_emit_rejects_empty_table():
    for columns in ({}, {"error": []}):
        with pytest.raises(ValueError, match="empty table"):
            emit(SweepTable(columns, (0,)), "csv")


def test_gw_config_and_sweep(tmp_path):
    text = """[gw]
n0 = 1e6
r_original = 4.2
[sweep]
r_pumped = values 2.0 4.2
"""
    spec = parse_config(write(tmp_path, text))
    assert spec.kind == "gw"
    rows = run_sweep(spec)
    assert len(rows) == 2
    assert rows[0]["ratio"] == pytest.approx(1.0, abs=0.01)
    assert rows[1]["ratio"] > 50


def test_grid_cap_enforced(tmp_path):
    text = """channel = squeezing
r = 0.5
[sweep]
theta = linspace 0 1.5 1001
nbar = linspace 10 1000 1001
"""
    with pytest.raises(ConfigError, match="cap"):
        parse_config(write(tmp_path, text))


@pytest.mark.parametrize("count, message", [
    (str(GRID_CAP + 1), f"linspace count {GRID_CAP + 1} exceeds the grid cap {GRID_CAP}"),
    ("1e30", f"linspace count 1e30 exceeds the grid cap {GRID_CAP}"),
    ("2.9", "linspace count must be a whole number, got 2.9"),
    ("0.5", "linspace count must be a whole number, got 0.5"),
    ("0", "sweep count must be >= 1, got 0"),
])
def test_linspace_count_is_checked_before_its_values_are_made(tmp_path, count, message):
    # a count above the cap was once materialised before the grid check (1e30
    # failed inside numpy), and 2.9 silently became 2 rows
    path = write(tmp_path, f"channel = squeezing\n[sweep]\ntheta = linspace 0 1 {count}\n")
    with pytest.raises(ConfigError) as info:
        parse_config(path)
    assert str(info.value) == f"{path}:3: {message}"


def test_linspace_refuses_a_span_that_overflows(tmp_path):
    # hi - lo overflows, and numpy's values would be nan and inf
    path = write(tmp_path, "channel = squeezing\n[sweep]\nr = linspace -1e308 1e308 3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="non-finite value"):
            parse_config(path)


def test_linspace_accepts_a_whole_count_in_any_notation(tmp_path):
    path = write(tmp_path, "channel = squeezing\n[sweep]\ntheta = linspace 0 1 3.0\n"
                           "r = linspace 0 1 1e0\n")
    assert parse_config(path).sweeps == (("theta", (0.0, 0.5, 1.0)), ("r", (0.0,)))


@pytest.mark.parametrize("text", ["channel = phase\nepsilon = 0.3\n",
                                  "channel = phase\n[sweep]\nepsilon = values 0 0.01 0.3\n"])
def test_config_refuses_the_epsilon_key(tmp_path, text):
    # epsilon was accepted and then ignored: the strain point is eps0
    with pytest.raises(ConfigError, match="'epsilon'"):
        parse_config(write(tmp_path, text))


def test_gw_and_interferometer_keys_conflict(tmp_path):
    text = "channel = squeezing\n[gw]\nn0 = 1e6\nr_original = 1.0\n"
    with pytest.raises(ConfigError, match="either"):
        parse_config(write(tmp_path, text))


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_qfi_command(tmp_path, capsys):
    path = write(tmp_path, "channel = squeezing\nr = 1.0\nnbar = 100\ntheta = 0.0\n"
                           "squeeze_phase = 1.5707963267948966\n")
    assert main(["qfi", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "H_numeric" in out and "3.5385" in out


def test_cli_sensitivity_command(tmp_path, capsys):
    path = write(tmp_path, "channel = squeezing\nr = 1.0\nnbar = 1e4\ntheta = 0.4\n")
    assert main(["sensitivity", "--config", path]) == 0
    assert "F0" in capsys.readouterr().out


def test_cli_sweep_writes_file(tmp_path, capsys):
    path = write(tmp_path, """channel = squeezing
r = 1.0
nbar = 1e4
[sweep]
theta = linspace 0.1 1.0 4
""")
    out = tmp_path / "table.csv"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 5
    assert lines[0].startswith("theta,")


def test_cli_config_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "channel = squeezing\nbad_key = 1\n")
    assert main(["qfi", "--config", path]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    # r = 10 once failed an absolute symplectic residual check; in the input
    # frame it is a valid point, whose numeric QFI equals the closed form
    path = write(tmp_path, "channel = squeezing\nr = 10.0\nnbar = 1e12\ntheta = 0.3\n")
    assert main(["qfi", "--config", path]) == 0
    printed = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    assert float(printed["H_numeric"]) == pytest.approx(float(printed["H_closed"]), rel=1e-12)
    # the number-sum signal is stationary at zero strain: a numerical failure
    path = write(tmp_path, "channel = squeezing\nr = 10.0\nnbar = 1e12\ntheta = 0.3\n"
                           "eps0 = 0\n")
    assert main(["sensitivity", "--config", path]) == 2
    assert capsys.readouterr().err == (
        "error: F0: number-sum signal is stationary at zero strain; use eps0 > 0\n")


@pytest.mark.parametrize("command", ["qfi", "sensitivity"])
def test_cli_strong_squeezing_is_a_valid_point(tmp_path, capsys, command):
    path = write(tmp_path, "channel = squeezing\nr = 8\nnbar = 1e12\ntheta = 0.7\n")
    assert main([command, "--config", path]) == 0
    out = capsys.readouterr().out
    assert "H_numeric = 5.393352209592e+17\n" in out
    if command == "qfi":
        assert "H_closed = 5.393352209592e+17\n" in out


def test_cli_non_finite_qfi_is_one_error_line(tmp_path):
    # the strength overflows the QFI's squares to inf; the row's error is the
    # only line on stderr, without numpy's RuntimeWarnings
    path = write(tmp_path, "channel = squeezing\nstrength = 1e200\nr = 1\ntheta = 0.3\n")
    proc = subprocess.run([sys.executable, "-m", "pumpedsu11.cli", "qfi", "--config", path],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 2
    assert proc.stderr == ("error: H_numeric: QFI evaluated to inf; "
                           "H_closed: closed-form QFI evaluated to inf\n")


@pytest.mark.parametrize("line", ["nbar = nan", "nbar = inf", "strength = nan", "eps0 = nan",
                                  "eps0 = inf"])
def test_cli_rejects_non_finite_values(tmp_path, capsys, line):
    path = write(tmp_path, f"channel = squeezing\nr = 1.0\ntheta = 0.4\n{line}\n")
    assert main(["qfi", "--config", path]) == 1
    token = line.split(" = ")[1]
    assert capsys.readouterr().err == (
        f"config error: {path}:4: expected a finite number, got {token!r}\n")


@pytest.mark.parametrize("argv", [["sensitivity", "--format", "xml"], ["bogus"]])
def test_cli_usage_error_exit_code(tmp_path, capsys, argv):
    # an option value outside its choices, and an unknown subcommand
    path = write(tmp_path, "channel = squeezing\nr = 1.0\ntheta = 0.4\n")
    assert main([argv[0], "--config", path, *argv[1:]]) == 1
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["qfi", "sensitivity", "sweep", "gw-compare", "validate"])
def test_cli_has_no_eps0_option(tmp_path, capsys, command):
    # the strain point is the config file's eps0 key, so the file alone fixes a run
    path = write(tmp_path, "channel = squeezing\nr = 1.0\ntheta = 0.4\neps0 = 1e-3\n")
    config = [] if command == "validate" else ["--config", path]
    assert main([command, *config, "--eps0", "1e-3"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.endswith("error: unrecognized arguments: --eps0 1e-3\n")


def test_base_eps0_equals_a_swept_eps0_and_the_scalar_function(tmp_path):
    text = "channel = squeezing\nr = 1.0\nnbar = 1e4\ntheta = 0.4\n"
    spec = parse_config(write(tmp_path, text + "eps0 = 0.01\n"))
    [row] = run_sweep(spec)
    [swept] = run_sweep(parse_config(write(tmp_path, text + "[sweep]\neps0 = values 0.01\n",
                                           "swept.conf")))
    assert row["error"] == ""
    assert swept == {"eps0": 0.01, **row}
    assert row["F0"] == sensitivity_number_sum(_build_config(spec.base), 0.01)[1]


def test_cli_help_exit_code(capsys):
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["squeezing", "mode_mixing"])
def test_large_squeezing_rows_are_valid(tmp_path, kind):
    # the recomputed det(sigma) of these states once failed the physicality test
    sq, tp = optimal_phases(kind, 0.0, np.pi / 2)
    path = write(tmp_path, f"channel = {kind}\nchannel_phase = {np.pi / 2!r}\n"
                           f"squeeze_phase = {sq!r}\ntritter_phase = {tp!r}\n"
                           "nbar = 1e8\ntheta = 0.4\n[sweep]\nr = values 4.0 4.5 5.0\n")
    rows = run_sweep(parse_config(path))
    assert len(rows) == 3
    for row in rows:
        assert row["error"] == ""
        assert row["H_numeric"] == pytest.approx(row["H_closed"], rel=1e-9)


def test_cli_qfi_phase_channel_numeric_only(tmp_path, capsys):
    path = write(tmp_path, "channel = phase\nr = 1.0\nnbar = 1e4\ntheta = 0.4\n")
    assert main(["qfi", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "H_numeric" in out and "H_closed" not in out


def test_cli_gw_compare(tmp_path, capsys):
    path = write(tmp_path, "[gw]\nn0 = 1e6\nr_original = 4.2\nr_pumped = 2.0\n")
    assert main(["gw-compare", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "ratio" in out


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("text", [
    "[gw]\nn0 = 1e6\nr_original = 4.2\nr_pumped = 2.0\n",
    "[gw]\nn0 = 1e6\nr_original = 4.2\n[sweep]\nr_pumped = values 1.0 2.0 9.0\n"
    "theta_sq = values -0.01 0.05\n",
], ids=["point", "grid"])
def test_cli_gw_compare_writes_the_table(tmp_path, capsys, text, fmt):
    path = write(tmp_path, text)
    out = tmp_path / f"table.{fmt}"
    assert main(["gw-compare", "--config", path, "--out", str(out), "--format", fmt]) == 0
    spec = parse_config(path)
    rows = run_sweep(spec)
    assert out.read_text() == emit_rowwise(rows, fmt, spec=spec)
    assert capsys.readouterr().out.endswith(f"wrote {out} ({len(rows)} rows)\n")


def test_cli_gw_compare_fails_on_a_one_row_grid_whose_row_fails(tmp_path, capsys):
    path = write(tmp_path, "[gw]\nn0 = 1e6\nr_original = 4.2\n[sweep]\ntheta_sq = values -0.01\n")
    out = tmp_path / "table.csv"
    assert main(["gw-compare", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: theta^2 must be nonnegative, got -0.01\n"
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_gw_compare_prints_a_swept_table_as_sweep_does(tmp_path, capsys, fmt):
    # a swept [gw] file without --out once printed nothing and exited 0
    path = write(tmp_path, "[gw]\nn0 = 1e6\nr_original = 4.2\n[sweep]\n"
                           "r_pumped = values 1.0 2.0 9.0\ntheta_sq = values -0.01 0.05\n")
    assert main(["sweep", "--config", path, "--format", fmt]) == 0
    swept = capsys.readouterr()
    assert main(["gw-compare", "--config", path, "--format", fmt]) == 0
    assert capsys.readouterr() == swept
    assert swept.out == emit(run_sweep(parse_config(path), table=True), fmt)


@pytest.mark.parametrize("command, text, rows", [
    ("qfi", "channel = squeezing\nr = 0.5\nnbar = 100\n", 1),
    ("sensitivity", "channel = mode_mixing\nr = 0.5\nnbar = 100\ntheta = 0.4\n", 1),
    ("sweep", "channel = squeezing\nr = 0.5\nnbar = 1e4\n[sweep]\ntheta = values 0.1 0.4\n", 2),
    ("gw-compare", "[gw]\nn0 = 1e6\nr_original = 4.2\n", 1),
    ("gw-compare", "[gw]\nn0 = 1e6\nr_original = 4.2\n[sweep]\nn0 = values 1e5 1e6 1e7\n", 3),
], ids=["qfi", "sensitivity", "sweep", "gw_point", "gw_grid"])
def test_cli_out_line_names_the_path_and_rows(tmp_path, capsys, command, text, rows):
    out = tmp_path / "table.csv"
    assert main([command, "--config", write(tmp_path, text), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote {out} ({rows} rows)"
    assert len(out.read_text().splitlines()) == 1 + rows


SWEEP_TEXT = "channel = squeezing\nr = 0.5\nnbar = 1e4\n[sweep]\ntheta = values 0.1 0.4\n"


@pytest.mark.parametrize("command, text", [
    ("qfi", "channel = squeezing\nr = 0.5\nnbar = 100\n"),
    ("sweep", SWEEP_TEXT),
], ids=["point", "sweep"])
def test_cli_words_a_file_error_with_its_path(tmp_path, capsys, command, text):
    missing = str(tmp_path / "missing" / "t.csv")
    assert main([command, "--config", write(tmp_path, text), "--out", missing]) == 1
    # a point is written before it is printed, so a failed write prints nothing
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {missing}: No such file or directory\n")
    assert main([command, "--config", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"
    missing = tmp_path / "none.conf"
    assert main([command, "--config", str(missing)]) == 1
    assert capsys.readouterr() == ("", f"error: {missing}: No such file or directory\n")


@pytest.mark.parametrize("command", ["qfi", "gw-compare"])
def test_cli_refuses_a_config_that_is_not_utf8(tmp_path, capsys, command):
    # the line of the first bad byte, with \r\n and \r line ends counted as text mode counts them
    for data, where, detail in [
            (b"\xff", 1, "byte 0xff at column 1"),
            (b"channel = squeezing\r\n# caf\xe9\nr = 1\n", 2, "byte 0xe9 at column 6"),
            (b"[gw]\rn0 = 1e6\n# caf\xe9 au lait\n# \xff\n", 3, "byte 0xe9 at column 6")]:
        path = tmp_path / "latin.conf"
        path.write_bytes(data)
        assert main([command, "--config", str(path)]) == 1
        assert capsys.readouterr() == ("", f"config error: {path}:{where}: not UTF-8 text: "
                                           f"{detail}\n")


@pytest.mark.parametrize("command, text", [
    ("qfi", "channel = squeezing\nr = 0.5\nnbar = 100\n"),
    ("sensitivity", "channel = squeezing\nr = 0.5\nnbar = 100\ntheta = 0.4\n"),
    ("sweep", SWEEP_TEXT),
    ("gw-compare", "[gw]\nn0 = 1e6\nr_original = 4.2\n"),
])
def test_cli_refuses_an_empty_out_path(tmp_path, capsys, command, text):
    assert main([command, "--config", write(tmp_path, text), "--out", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(
        "error: argument --out: expected a file path, got ''")


def test_out_rewrites_a_longer_file_to_exactly_the_new_bytes(tmp_path, capsys):
    out = tmp_path / "table.csv"
    out.write_text("x" * 100_000)
    path = write(tmp_path, SWEEP_TEXT)
    assert main(["sweep", "--config", path, "--out", str(out)]) == 0
    assert out.read_text() == emit(run_sweep(parse_config(path), table=True), "csv")


def test_out_may_be_dev_null(tmp_path, capsys):
    assert main(["sweep", "--config", write(tmp_path, SWEEP_TEXT), "--out", os.devnull]) == 0
    assert capsys.readouterr().out == f"wrote {os.devnull} (2 rows)\n"


def test_out_through_a_symlink_rewrites_its_target(tmp_path, capsys):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old\n" * 1000)
    link.symlink_to(target)
    path = write(tmp_path, SWEEP_TEXT)
    assert main(["sweep", "--config", path, "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == emit(run_sweep(parse_config(path), table=True), "csv")


def test_out_keeps_the_mode_of_an_existing_file(tmp_path, capsys):
    out = tmp_path / "table.csv"
    out.write_text("old\n")
    out.chmod(0o604)
    assert main(["sweep", "--config", write(tmp_path, SWEEP_TEXT), "--out", str(out)]) == 0
    assert out.stat().st_mode & 0o777 == 0o604


def test_out_creates_a_new_file_under_the_umask(tmp_path, capsys):
    out = tmp_path / "table.csv"
    mask = os.umask(0o002)
    try:
        assert main(["sweep", "--config", write(tmp_path, SWEEP_TEXT), "--out", str(out)]) == 0
    finally:
        os.umask(mask)
    assert out.stat().st_mode & 0o777 == 0o666 & ~0o002


def test_cli_validate(capsys):
    assert main(["validate", "--cutoff", "20"]) == 0
    out = capsys.readouterr().out
    assert "oracle checks passed" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("cutoff", ["5", "0", "-3", "9", "13", "41", "100"])
def test_cli_validate_rejects_a_cutoff_outside_its_range(capsys, cutoff):
    # 41 and 100 once ran silently at cutoff 40; 10 to 13 always failed the
    # leakage guard
    assert main(["validate", f"--cutoff={cutoff}"]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: --cutoff must be between 14 and 40, got {cutoff}\n"


def test_cli_validate_cutoffs_match_the_fock_guards(capsys):
    from pumpedsu11 import cli, fock
    lo, hi = cli.VALIDATE_CUTOFFS
    assert lo >= fock.MIN_CUTOFF
    assert hi ** 3 <= fock.MAX_DIMENSION < (hi + 1) ** 3
    assert main(["validate", "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "14 to 40 (default 25); the two-mode checks use cutoff 30" in help_text
    # the smallest accepted cutoff passes the suite; one below it leaks
    assert main(["validate", f"--cutoff={lo}"]) == 0
    from pumpedsu11.validation import oracle_checks
    with pytest.raises(fock.LeakageError, match=f"at cutoff {lo - 1}"):
        oracle_checks(lo - 1)
    capsys.readouterr()


def test_oracle_checks_refuse_a_cutoff_past_the_dimension_guard():
    from pumpedsu11.validation import oracle_checks
    with pytest.raises(ValueError, match="total dimension 68921 exceeds the guard 64000"):
        oracle_checks(41)


def test_cli_sensitivity_names_a_degenerate_ratio(tmp_path, capsys):
    # the squared slope overflows, so Var(S)/(d<S>/d eps)^2 is 0 and F0 has no value
    path = write(tmp_path, "channel = mode_mixing\nstrength = 1e150\nr = 0.0\nnbar = 1e6\n"
                           "theta = 0.5\n")
    assert main(["sensitivity", "--config", path]) == 2
    assert capsys.readouterr().err == (
        "error: F0: degenerate ratio Var(S)/(d<S>/d eps)^2 = 0.0 "
        "(Var(S) = 29598.85623223449, (d<S>/d eps)^2 = inf)\n")


def test_output_directory_override(tmp_path, monkeypatch, capsys):
    path = write(tmp_path, "channel = squeezing\nr = 0.5\nnbar = 100\n")
    outdir = tmp_path / "redirected"
    outdir.mkdir()
    monkeypatch.setenv("PUMPEDSU11_OUTDIR", str(outdir))
    assert main(["qfi", "--config", path, "--out", "point.csv"]) == 0
    assert (outdir / "point.csv").exists()


# A child interpreter runs cli.main for the commands that need no Fock oracle,
# reports which scipy modules it has loaded, then runs the two scipy users.
COLD_START = """
import sys
import numpy as np
import pumpedsu11
import pumpedsu11.cli as cli
assert cli.main(["qfi", "--config", sys.argv[1]]) == 0
assert cli.main(["sweep", "--config", sys.argv[2]]) == 0
print("scipy modules:", sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
assert cli.main(["validate", "--cutoff", "25"]) == 0
generated = pumpedsu11.tritter_from_generator(0.7, 0.3).matrix
print("generator agrees:", np.allclose(generated, pumpedsu11.tritter(0.7, 0.3).matrix,
                                       rtol=0, atol=1e-12))
"""


def test_cli_cold_start_loads_no_scipy(tmp_path):
    point = write(tmp_path, "channel = squeezing\nr = 0.5\nnbar = 100\n", "point.conf")
    grid = write(tmp_path, "channel = mode_mixing\nr = 0.5\nnbar = 1e4\n"
                           "[sweep]\ntheta = values 0.1 0.4\n", "grid.conf")
    proc = subprocess.run([sys.executable, "-c", COLD_START, point, grid],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert "scipy modules: []" in proc.stdout
    assert "10/10 oracle checks passed" in proc.stdout
    assert "generator agrees: True" in proc.stdout


def test_cli_gw_sweep_reports_a_failed_row_without_warnings(tmp_path):
    # n0 = 0 divides by zero in gamma = n_side / n0, and the row's error words it
    path = write(tmp_path, "[gw]\nn0 = 1e6\nr_original = 4.2\n[sweep]\nn0 = values 0 1e6\n")
    proc = subprocess.run([sys.executable, "-m", "pumpedsu11.cli", "sweep", "--config", path],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "need 0 <= gamma <= delta, got gamma=inf, delta=0.1" in proc.stdout


# Runs each argv list of sys.argv[1] through one process's cli.main and prints
# the exit codes and stdout, and how many parsers were built.
CLI_CALLS = """
import contextlib, io, json, sys
from pumpedsu11 import cli
built = []
build_parser = cli.build_parser
cli.build_parser = lambda: built.append(1) or build_parser()
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    results.append([code, out.getvalue()])
print(json.dumps({"parsers": len(built), "results": results}))
"""


def test_cli_parser_is_built_once_and_keeps_no_state(tmp_path):
    point = write(tmp_path, "channel = squeezing\nr = 0.5\nnbar = 100\ntheta = 0.4\n",
                  "point.conf")
    grid = write(tmp_path, "channel = squeezing\nr = 0.5\nnbar = 1e4\neps0 = -1e-3\n"
                           "[sweep]\ntheta = values 0.1 0.4\n", "grid.conf")
    calls = [["sensitivity", "--config", point, "--format", "xml"], ["--help"],
             ["qfi", "--config", point], ["sweep", "--config", grid, "--format", "csv"],
             ["qfi", "--config", point]]

    def run(argvs):
        proc = subprocess.run([sys.executable, "-c", CLI_CALLS, json.dumps(argvs)],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    together = run(calls)
    assert together["parsers"] == 1
    alone = [run([argv])["results"][0] for argv in calls]
    assert together["results"] == alone
    assert [code for code, _ in alone] == [1, 0, 0, 0, 0]
    assert "usage:" in alone[1][1] and "H_numeric" in alone[2][1]
    assert alone[3][1].startswith("theta,")


def test_console_entry_point(tmp_path):
    path = write(tmp_path, "channel = squeezing\nr = 0.5\nnbar = 100\n")
    proc = subprocess.run([sys.executable, "-m", "pumpedsu11.cli", "qfi",
                           "--config", path], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert "H_numeric" in proc.stdout


# ---------------------------------------------------------------------------
# config checks by run kind, column-wise emit
# ---------------------------------------------------------------------------

def test_gw_rejects_negative_theta_sq(tmp_path, capsys):
    path = write(tmp_path, "[gw]\nn0 = 1e6\nr_original = 4.2\ntheta_sq = -0.01\n")
    with pytest.raises(ConfigError, match=r"\[gw\] base point: theta\^2 must be nonnegative"):
        parse_config(path)
    assert main(["gw-compare", "--config", path]) == 1
    assert "config error" in capsys.readouterr().err
    # a swept negative value is that row's error
    rows = run_sweep(parse_config(write(
        tmp_path, "[gw]\nn0 = 1e6\nr_original = 4.2\n[sweep]\ntheta_sq = values -0.01 0.05\n",
        "swept.conf")))
    assert "nonnegative" in rows[0]["error"] and rows[0]["qfi_pumped"] is None
    assert rows[1]["error"] == "" and rows[1]["theta"] ** 2 == pytest.approx(0.05)
    # a negative base value that every row replaces does not fail the file
    path = write(tmp_path, "[gw]\nn0 = 1e6\nr_original = 4.2\ntheta_sq = -0.1\n"
                           "[sweep]\ntheta_sq = values 0.001 0.002\n", "replaced.conf")
    assert main(["gw-compare", "--config", path]) == 0
    rows = run_sweep(parse_config(path))
    assert [row["error"] for row in rows] == ["", ""]
    assert [row["theta"] ** 2 for row in rows] == pytest.approx([0.001, 0.002])


def test_quantities_must_fit_the_run_kind(tmp_path, capsys):
    path = write(tmp_path, "channel = squeezing\nr = 0.5\nnbar = 100\n"
                           "[outputs]\nquantities = H_numeric comparison\n")
    with pytest.raises(ConfigError, match=r"run\.conf:5: quantity 'comparison' needs a \[gw\]"):
        parse_config(path)
    assert main(["sweep", "--config", path]) == 1
    for outputs in ("quantities = H_numeric", "quantities = comparison"):
        path = write(tmp_path, f"[outputs]\n{outputs}\n[gw]\nn0 = 1e6\nr_original = 4.2\n",
                     "gw.conf")
        with pytest.raises(ConfigError, match=r"\[outputs\] does not apply to a \[gw\] run"):
            parse_config(path)
    capsys.readouterr()


SWEEP = "channel = squeezing\nr = 0.5\nnbar = 100\n[sweep]\n"
GW = "[gw]\nn0 = 1e6\nr_original = 4.2\n"


@pytest.mark.parametrize("command, body, message", [
    ("sweep", "channel = squeezing\nr = abc\n", ":2: expected a number, got 'abc'"),
    ("sweep", SWEEP + "theta =\n", ":5: empty sweep specification"),
    ("sweep", SWEEP + "theta = linspace 0 1\n",
     ":5: linspace takes 'linspace <min> <max> <count>'"),
    ("sweep", SWEEP + "theta = values\n", ":5: 'values' needs at least one value"),
    ("sweep", "channel = squeezing\n[bogus]\n", ":2: unknown section [bogus]"),
    ("sweep", SWEEP + "theta = values 0.1\ntheta = values 0.2\n",
     ":6: parameter 'theta' swept twice"),
    ("sweep", "channel = squeezing\n[outputs]\nquantity = F0\n",
     ":3: unknown key 'quantity' in [outputs]"),
    ("sweep", "channel = squeezing\nchannel = phase\n", ":2: key 'channel' given twice"),
    ("qfi", "channel = squeezing\nr = 1\nr = 2\n", ":3: key 'r' given twice"),
    ("sweep", GW + "n0 = 1e5\n", ":4: key 'n0' given twice in [gw]"),
    ("sweep", "channel = squeezing\n[outputs]\nquantities = F0\nquantities = H_numeric\n",
     ":4: key 'quantities' given twice in [outputs]"),
    ("sweep", "channel = squeezing\n[outputs]\nquantities = theta_t theta_t F0\n",
     ":3: quantity 'theta_t' listed twice"),
    ("sweep", "channel = squeezing\n[outputs]\nquantities =\n", ":3: empty quantity list"),
    ("sweep", GW + "n1 = 3\n", ":4: unknown key 'n1' in [gw]"),
    ("sweep", GW + "eps0 = 1e-3\n", ":4: unknown key 'eps0' in [gw]"),
    ("sweep", "[gw]\nn0 = 1e6\n", ": [gw] section requires r_original"),
    ("sweep", GW + "[sweep]\ntheta = values 0.1\n", ": cannot sweep 'theta' in a [gw] run"),
    ("sweep", SWEEP + "channel = values 1 2\n", ":5: the channel kind cannot be swept"),
    ("sweep", SWEEP + "channel = squeezing phase\n", ":5: the channel kind cannot be swept"),
    ("qfi", GW, ": this command needs an interferometer config"),
    ("sensitivity", SWEEP + "theta = values 0.1 0.2\n",
     ": single-point command, but [sweep] is present; use the sweep subcommand"),
    ("gw-compare", "channel = squeezing\n", ": gw-compare needs a [gw] section"),
], ids=["number", "empty_sweep", "linspace_arity", "empty_values", "unknown_section",
        "swept_twice", "outputs_key", "channel_twice", "r_twice",
        "gw_key_twice", "outputs_twice", "quantity_twice", "empty_quantities", "gw_key",
        "gw_eps0", "gw_r_original", "gw_sweep_key", "channel_swept", "channel_kinds_swept",
        "needs_interferometer", "sweep_present", "needs_gw"])
def test_cli_config_refusals_name_their_place(tmp_path, capsys, command, body, message):
    path = write(tmp_path, body)
    assert main([command, "--config", path]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"config error: {path}{message}\n")


@pytest.mark.parametrize("body, message", [
    ("n0 = 0\nr_original = 4.2\n", "need 0 <= gamma <= delta"),
    ("n0 = 1e6\nr_original = 4.2\ndelta = 2\n", "delta must be small"),
    ("n0 = 1e6\nr_original = 400\nr_pumped = 2.0\n", "base point: non-finite qfi_original"),
    ("n0 = 1e6\nr_original = 4.2\nstrength = 0\n", "base point: non-finite ratio"),
], ids=["empty_pump", "large_delta", "overflowing_qfi", "undefined_ratio"])
def test_gw_base_point_outside_the_domain_is_a_config_error(tmp_path, capsys, body, message):
    path = write(tmp_path, "[gw]\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        with pytest.raises(ConfigError, match=r"run\.conf: \[gw\] base point") as info:
            parse_config(path)
        assert main(["gw-compare", "--config", path]) == 1
    assert message in str(info.value)
    assert capsys.readouterr().err.startswith("config error: ")


def test_gw_non_finite_rows_are_worded_alike_swept_or_not(tmp_path):
    # an overflowing H_orig once gave swept rows inf and ratio 0 with an empty
    # error cell, while the same point unswept was a config error
    base = "[gw]\nn0 = 1e6\nr_original = 400\n"
    with pytest.raises(ConfigError) as info:
        parse_config(write(tmp_path, base + "r_pumped = 2.0\n"))
    rows = run_sweep(parse_config(write(tmp_path, base + "[sweep]\nr_pumped = values 1 2\n",
                                        "swept.conf")))
    assert [row["error"] for row in rows] == ["non-finite qfi_original"] * 2
    assert str(info.value).endswith("[gw] base point: " + rows[1]["error"])
    assert all(row[column] is None for row in rows for column in GW_COLUMNS[:-1])


@pytest.mark.parametrize("sweep, rows", [("r_pumped = linspace 0.5 1.5 3", 3),
                                         ("delta = values 0.2 0.3", 2)])
def test_gw_sweep_may_replace_a_base_value_outside_the_domain(tmp_path, capsys, sweep, rows):
    # r_pumped defaults to r_original = 4, where gamma ~ 0.149 exceeds the default
    # delta = 0.1; every swept row replaces that value, so each row is valid
    path = write(tmp_path, f"[gw]\nn0 = 1e4\nr_original = 4\n[sweep]\n{sweep}\n")
    assert main(["sweep", "--config", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + rows
    assert all(line.endswith(",") for line in lines[1:])  # no row has an error


@pytest.mark.parametrize("body, message", [
    ("delta = 2\n", "delta must be small compared to 1, got 2.0"),
    ("delta = -0.5\n", "need 0 <= gamma <= delta, got gamma=0.0, delta=-0.5"),
    ("theta_sq = -0.01\n", "theta^2 must be nonnegative, got -0.01"),
    ("theta_sq = -0.01\ndelta = 2\n", "theta^2 must be nonnegative, got -0.01"),
], ids=["large_delta", "negative_delta", "negative_theta_sq", "theta_sq_first"])
def test_gw_sweep_refuses_an_unswept_value_that_fails_every_row(tmp_path, capsys, body,
                                                                message):
    # no swept n0 can mend these: every row once carried the error, with exit 0
    path = write(tmp_path, f"[gw]\nr_original = 4.2\nr_pumped = 2.0\n{body}"
                           "[sweep]\nn0 = values 1e5 1e6\n")
    with pytest.raises(ConfigError, match=r"run\.conf: \[gw\] base point: ") as info:
        parse_config(path)
    assert str(info.value).endswith(message)
    assert main(["sweep", "--config", path]) == 1
    assert capsys.readouterr().err.startswith("config error: ")


NUMBER = st.one_of(
    st.none(), st.floats(allow_nan=True, allow_infinity=True), st.integers(-10 ** 20, 10 ** 20),
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, np.float64(1e-300), 10 ** 20, True]))
TEXT = st.one_of(st.text(max_size=6), st.sampled_from(["", "a, b", 'say "x"', "x\ny", "\r"]))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(st.one_of(
    st.lists(NUMBER, min_size=n, max_size=n), st.lists(TEXT, min_size=n, max_size=n)),
    max_size=4)))
def test_emit_equals_rowwise_emit(columns):
    # a column holds numbers (None where a row failed) or strings
    n = len(columns[0]) if columns else 1
    table = SweepTable({f"c{k}": column for k, column in enumerate(columns)}, (n,))
    rows = table.rows()
    for fmt in ("csv", "json"):
        assert emit(table, fmt) == emit_rowwise(rows, fmt)


def test_rows_of_a_table_without_columns_are_distinct_empty_dicts():
    rows = SweepTable({}, (3,)).rows()
    assert rows == [{}, {}, {}]
    assert len({id(row) for row in rows}) == 3
    assert SweepTable({}, (2, 0)).rows() == []


@pytest.mark.parametrize("text", [
    "channel = squeezing\nr = 0.7\nnbar = 200\n[sweep]\ntheta = values 0.2 0.9\n"
    "r = values 0.0 0.5 9.0\n",
    "channel = phase\nr = 0.5\nnbar = 1e4\n[sweep]\neps0 = values 0 1e-3\n"
    "[outputs]\nquantities = H_numeric H_closed F0\n",
    "[gw]\nn0 = 1e6\nr_original = 4.2\n[sweep]\nr_pumped = values 1.0 2.0 9.0\n"
    "theta_sq = values -0.01 0.05 0.2\n",
    "[gw]\nn0 = 1e6\nr_original = 4.2\nr_pumped = 2.0\n",
], ids=["interferometer", "phase", "gw", "gw_point"])
def test_emit_of_sweeps_equals_rowwise_emit(tmp_path, text):
    spec = parse_config(write(tmp_path, text))
    rows = run_sweep(spec)
    table = run_sweep(spec, table=True)
    assert table.rows() == rows
    assert any(row["error"] for row in rows) == (len(rows) > 1)
    for fmt in ("csv", "json"):
        assert emit(table, fmt) == emit_rowwise(rows, fmt, spec=spec)


# Values where a JSON cell's .13g text and the repr of its 13-digit float may
# differ: around 1e13 and 1e16, subnormals, zero, integral values after
# rounding, the 1e-4 boundary of fixed notation, non-finite values, a large
# int and a bool.
EDGE_VALUES = [9.999999999999949e12, 9.99999999999995e12, 1e13, 123456789012345.0,
               9.9999999999999995e15, 1e16, 5e-324, 2.225073858507201e-308,
               2.2250738585072014e-308, 0.0, -0.0, 2.9999999999999996, 1e-5,
               9.99999999999995e-5, np.nan, np.inf, -np.inf, 10 ** 20, True]


def test_emit_edge_values_equal_rowwise_emit():
    floats = [float(v) for v in EDGE_VALUES]
    array = np.array(floats)
    columns = {"listed": list(EDGE_VALUES), "array": array,
               "with_none": [None if k % 3 == 1 else v for k, v in enumerate(EDGE_VALUES)],
               "negated": [-v for v in floats], "array_again": array}
    table = SweepTable(columns, (len(EDGE_VALUES),))
    rows = table.rows()
    for fmt in ("csv", "json"):
        assert emit(table, fmt) == emit_rowwise(rows, fmt)
    text = emit(table, "json")
    for cell in ('"listed": 10000000000000.0', '"listed": 123456789012300.0',
                 '"listed": 1e+16', '"listed": 5e-324', '"listed": 2.225073858507e-308', '"listed": -0.0',
                 '"listed": 3.0', '"listed": 0.0001', '"listed": 1e-05', '"listed": NaN',
                 '"negated": -Infinity', '"listed": 1e+20', '"listed": 1.0,'):
        assert cell in text


def test_a_column_held_under_two_names_is_formatted_once(monkeypatch):
    # as a [gw] table with defaulted theta_sq holds theta_max as theta
    rng = np.random.default_rng(27)
    grid, axis = rng.uniform(0.0, 2.0, (4, 3)), rng.uniform(-1.0, 1.0, (4, 1))
    with_none = [None if k % 5 == 2 else v for k, v in enumerate(rng.uniform(0.0, 1e14, 12))]
    shared = {"x": axis, "a": grid, "b": grid, "c": with_none, "d": with_none, "y": axis}
    copied = {"x": axis, "a": grid, "b": grid.copy(), "c": with_none, "d": list(with_none),
              "y": axis.copy()}
    number_text = sweep._number_text
    calls = []
    monkeypatch.setattr(sweep, "_number_text",
                        lambda values, fmt: calls.append(len(values)) or number_text(values, fmt))
    for fmt in ("csv", "json"):
        calls.clear()
        text = emit(SweepTable(shared, (4, 3)), fmt)
        assert sorted(calls) == [4, 10, 12]  # the axis, the list without None, the grid
        assert text == emit(SweepTable(copied, (4, 3)), fmt)
        assert sorted(calls[3:]) == [4, 4, 10, 10, 12, 12]  # each copy formatted again
        assert text == emit_rowwise(SweepTable(shared, (4, 3)).rows(), fmt)
