"""Command-line surface: schemas, determinism, config precedence, exit codes."""

import ast
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

from qetsim import chain, cli, cooling, eigensolver, protocol
from qetsim.cli import main
from qetsim.pauli import HermitianOperator


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ground_json_report(capsys):
    code, out, err = run_cli(capsys, "ground", "--sites", "8")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["params"]["command"] == "ground"
    assert doc["params"]["sites"] == 8
    assert abs(doc["energy"]) < 1e-9
    assert len(doc["epsilon"]) == 8
    assert max(abs(t) for t in doc["t_expect"]) < 1e-10
    assert all(m < -0.01 for m in doc["eps_min"])
    assert doc["checks"]["calibrated"] is True


def test_ground_csv_schema(capsys):
    code, out, _ = run_cli(capsys, "ground", "--sites", "8", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "epsilon_n", "T_n_expect", "eps_min"]
    assert len(rows) == 9
    assert float(rows[1][1]) == pytest.approx(-1.2814577, abs=1e-6)


def test_ground_open_boundary_varies_epsilon(capsys):
    code, out, _ = run_cli(capsys, "ground", "--sites", "8", "--bc", "open")
    assert code == 0
    eps = json.loads(out)["epsilon"]
    assert abs(eps[0] - eps[4]) > 1e-3


def test_teleport_best_axes_positive_energy(capsys):
    code, out, _ = run_cli(capsys, "teleport", "--sites", "10", "--axis-a", "best")
    assert code == 0
    doc = json.loads(out)
    assert doc["e_b"] > 1e-3
    assert doc["params"]["axis_a_used"] == [0.0, 1.0, 0.0]
    assert doc["params"]["axis_b_used"] == [1.0, 0.0, 0.0]
    profiles = doc["profiles"]
    assert sum(profiles["post_measurement"]) == pytest.approx(doc["e_a"], abs=1e-10)
    assert sum(profiles["post_feedback"]) == pytest.approx(doc["trace_energy"], abs=1e-10)


def test_teleport_theta_zero_reports_e_a(capsys):
    code, out, _ = run_cli(capsys, "teleport", "--sites", "8", "--axis-a", "y",
                           "--axis-b", "x", "--theta", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["trace_energy"] == pytest.approx(doc["e_a"], abs=1e-12)
    assert doc["e_b"] == pytest.approx(0.0, abs=1e-12)


def test_teleport_csv_profiles(capsys):
    code, out, _ = run_cli(capsys, "teleport", "--sites", "8", "--axis-a", "y",
                           "--axis-b", "x", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "t_ground", "t_post_measurement", "t_post_feedback"]
    assert len(rows) == 9


def test_sweep_csv_schema_and_decay(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--sizes", "10", "--distances", "1,2,3",
                           "--axis-a", "best", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "distance", "eb_numeric", "eb_closed", "delta", "note"]
    numeric = [float(r[2]) for r in rows[1:]]
    assert numeric[0] > numeric[1] > numeric[2] > 0.0


def test_sweep_json_has_slope(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--sizes", "8", "--distances", "1,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["closed_form_slope"] == pytest.approx(-4.5, abs=0.05)
    assert doc["checks"]["eb_decreasing_with_distance"] is True


def test_sweep_monotonicity_check_scales_with_coupling(capsys, monkeypatch):
    # at J = 1e-7 every E_B is ~1e-11, so a rise of 0.5e-12 at the last
    # distance is a few percent and must fail the check
    n_sites = 12
    run_protocol = protocol.run_protocol
    reported = []

    def rising_at_the_end(spec, setup, **kwargs):
        result = run_protocol(spec, setup, **kwargs)
        if spec.site_b == n_sites // 2:
            result = dataclasses.replace(result, e_b=reported[-1] + 0.5e-12)
        reported.append(result.e_b)
        return result

    monkeypatch.setattr(protocol, "run_protocol", rising_at_the_end)
    code, out, _ = run_cli(capsys, "sweep", "--sizes", str(n_sites), "--j", "1e-7",
                           "--axis-a", "y", "--axis-b", "x")
    doc = json.loads(out)
    assert [row["eb_numeric"] for row in doc["rows"]] == reported
    assert reported[-1] < 1.2 * reported[-2]
    assert doc["checks"]["eb_decreasing_with_distance"] is False
    assert code == 1


def test_sweep_monotonicity_follows_distance_not_row_order(capsys):
    # rows keep the order given, while the check compares E_B in ascending distance
    code, out, _ = run_cli(capsys, "sweep", "--sizes", "8", "--distances", "3,1",
                           "--axis-a", "y", "--axis-b", "x")
    doc = json.loads(out)
    assert [row["distance"] for row in doc["rows"]] == [3, 1]
    assert doc["rows"][1]["eb_numeric"] > doc["rows"][0]["eb_numeric"]
    assert doc["checks"]["eb_decreasing_with_distance"] is True
    assert code == 0


class SolverCalled(Exception):
    """Not caught by the CLI, so a solve before validation surfaces as an error."""


@pytest.mark.parametrize("argv, message", [
    (("--sizes", "16", "--distances", "1,9"), "distance 9 invalid for 16 sites"),
    (("--sizes", "8,21", "--distances", "1"), "out of range"),
    (("--sizes", "8,2", "--distances", "1"), "at least 3 sites"),
])
def test_sweep_validates_every_size_and_distance_before_solving(capsys, monkeypatch, argv, message):
    def fail(*args, **kwargs):
        raise SolverCalled

    monkeypatch.setattr(eigensolver, "ground_state", fail)
    code, out, err = run_cli(capsys, "sweep", *argv)
    assert code == 1 and out == ""
    assert message in err


@pytest.mark.parametrize("bc", ["periodic", "open"])
@pytest.mark.parametrize("axes", [("best", "x"), ("y", "x")])
def test_sweep_rows_equal_one_shot_protocol_runs(capsys, bc, axes):
    # one prepared ground state per size must give the E_B of a fresh chain,
    # axis sweep and run_protocol per distance
    n_sites = 8
    code, out, _ = run_cli(capsys, "sweep", "--sizes", str(n_sites), "--bc", bc,
                           "--axis-a", axes[0], "--axis-b", axes[1])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["distance"] for row in rows] == list(range(1, n_sites // 2 + 1))
    for row in rows:
        spec, res = chain.calibrated_chain(n_sites, boundary=bc, site_a=0, site_b=row["distance"])
        setup = (protocol.axis_sweep(spec, ground=res) if axes[0] == "best"
                 else protocol.MeasurementSetup.cardinal(*axes))
        result = protocol.run_protocol(spec, setup, ground=res)
        assert row["eb_numeric"] == pytest.approx(result.e_b, abs=1e-12 * spec.coupling)


def test_sweep_never_applies_the_calibrated_hamiltonian(capsys, monkeypatch):
    built, applied = [], []
    build, apply = protocol.build_hamiltonian, HermitianOperator.apply

    def recording_build(spec):
        built.append(build(spec))
        return built[-1]

    def counting_apply(self, vec):
        if any(self is op for op in built):
            applied.append(self)
        return apply(self, vec)

    monkeypatch.setattr(protocol, "build_hamiltonian", recording_build)
    monkeypatch.setattr(HermitianOperator, "apply", counting_apply)
    code, _, _ = run_cli(capsys, "sweep", "--sizes", "10", "--axis-a", "best")
    assert code == 0
    assert len(built) == 1
    # every protocol number is a trace over a few-site reduced density matrix
    assert applied == []


def test_cool_measures_once(capsys, monkeypatch):
    measure, calls = protocol.measure, []

    def counting_measure(*args):
        calls.append(args)
        return measure(*args)

    for module in (protocol, cooling):     # wherever `measure` is bound by name
        if getattr(module, "measure", None) is measure:
            monkeypatch.setattr(module, "measure", counting_measure)
    code, _, _ = run_cli(capsys, "cool", "--sites", "6", "--axis-a", "y", "--axis-b", "x")
    assert code == 0 and len(calls) == 1


def test_analytic_report(capsys):
    code, out, _ = run_cli(capsys, "analytic", "--n-max", "6")
    assert code == 0
    doc = json.loads(out)
    assert "fitted_c" not in doc and "default_c" not in doc
    assert doc["glaisher_kinkelin"] == pytest.approx(1.2824271291006226, abs=1e-15)
    n, ratio = doc["rows"][5]["n"], doc["rows"][5]["asym_ratio"]
    assert n == 6 and abs(ratio - 1.0 - 15.0 / (64.0 * n * n)) <= 0.09 / n ** 4
    assert doc["residual_energy"] == pytest.approx(0.9098593, abs=1e-7)
    deltas = [row["delta"] for row in doc["rows"]]
    assert deltas == sorted(deltas, reverse=True)
    assert doc["rows"][0]["delta"] == pytest.approx(2.0 / (3.0 * math.pi), rel=1e-12)


def test_analytic_rejects_nonpositive_coupling(capsys):
    code, _, err = run_cli(capsys, "analytic", "--j", "0")
    assert code == 1 and "coupling J must be positive" in err


@pytest.mark.parametrize("argv", [
    ("ground", "--sites", "6", "--j", "inf"),
    ("ground", "--sites", "6", "--j", "nan"),
    ("analytic", "--j", "inf", "--n-max", "2"),
    ("sweep", "--sizes", "6", "--j", "inf"),
    ("cool", "--sites", "6", "--j", "inf"),
    ("teleport", "--sites", "6", "--theta", "nan"),
    ("teleport", "--sites", "6", "--theta=-inf"),
])
def test_non_finite_inputs_exit_1_and_print_nothing(capsys, monkeypatch, argv):
    # NaN and Infinity are not JSON, so no document may be printed with them;
    # each is refused before the ground solve
    def fail(*args, **kwargs):
        raise SolverCalled

    monkeypatch.setattr(eigensolver, "ground_state", fail)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("ground", "--sites", "6", "--j", "1e308"),
    ("ground", "--sites", "6", "--j", "1e-320"),
    ("teleport", "--sites", "6", "--j", "2e300"),
    ("sweep", "--sizes", "6", "--j", "5e-291"),
    ("analytic", "--j", "1e308", "--n-max", "2"),
])
def test_coupling_outside_its_range_exits_1_and_names_the_range(capsys, argv):
    # 1e308 overflowed the offsets' sum, 1e-320 made the checks' 1e-10 J
    # subnormal, and analytic printed Infinity; 2e300 and 5e-291 lie just
    # outside the range's ends
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert "coupling J must be positive and finite, in [1e-290, 1e+300]" in err


@pytest.mark.parametrize("coupling", ["1e-290", "1e300"])
def test_coupling_at_either_end_of_its_range_passes_every_check(capsys, coupling):
    for argv in (("ground", "--sites", "6"),
                 ("teleport", "--sites", "6", "--axis-a", "best"),
                 ("sweep", "--sizes", "6,8", "--axis-a", "best"),
                 ("analytic", "--n-max", "300"),
                 ("cool", "--sites", "6", "--axis-a", "y", "--axis-b", "x")):
        code, out, err = run_cli(capsys, *argv, "--j", coupling)
        assert code == 0 and err == ""
        assert all(json.loads(out)["checks"].values())


def test_a_warning_prints_as_one_warning_line(capsys):
    # adjacent parties with tilted axes, where the closed form does not apply;
    # the line names no file, so it reads the same from every checkout
    argv = ["teleport", "--sites", "8", "--axis-a", "0,1,1", "--axis-b", "1,1,0"]
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "qetsim.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: closed-form E_B does not apply")
    assert str(src) not in lines[0] and ".py" not in lines[0]
    # in process too, and the library keeps Python's own display afterwards
    shown = warnings.showwarning
    assert run_cli(capsys, *argv)[::2] == (0, proc.stderr)
    assert warnings.showwarning is shown


def test_analytic_csv_schema(capsys):
    code, out, _ = run_cli(capsys, "analytic", "--n-max", "4", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "delta", "eb_closed", "asym_ratio"]
    assert len(rows) == 5


def test_cool_bound_checks(capsys):
    code, out, _ = run_cli(capsys, "cool", "--sites", "6", "--axis-a", "y",
                           "--axis-b", "x")
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"]["e_r_above_e_b"] is True
    assert doc["checks"]["e_r_below_e_a"] is True
    assert doc["duality_gap"] <= 1e-10
    assert "restarts" not in doc["params"]
    assert doc["e_b"] <= doc["e_r_numeric"] + 1e-8


def test_cool_is_scale_free_in_the_coupling(capsys):
    # the dual solve's stopping rule and kernel cutoff are relative to C, so a
    # coupling far below 1 gives the same e_r / J and gap / J as J = 1
    docs = {}
    for j in ("1", "1e-7"):
        code, out, _ = run_cli(capsys, "cool", "--sites", "6", "--axis-a", "y",
                               "--axis-b", "x", "--j", j)
        assert code == 0
        docs[float(j)] = json.loads(out)
    for j, doc in docs.items():
        assert doc["e_r_numeric"] / j == pytest.approx(docs[1.0]["e_r_numeric"], abs=1e-12)
        assert doc["e_r_numeric"] / j == pytest.approx(doc["e_a"] / j - 1.0, abs=1e-10)
        assert doc["duality_gap"] / j <= 1e-10


def test_teleport_is_scale_free_in_the_coupling(capsys, monkeypatch):
    # the bookkeeping and profile checks are relative to J: a coupling far
    # below 1 gives the same energies / J as J = 1, and a feedback that
    # extracts nothing still fails the bookkeeping although E_B is ~4e-9
    docs = {}
    for j in ("1", "1e-7", "1e-15"):
        code, out, _ = run_cli(capsys, "teleport", "--sites", "8", "--axis-a", "y",
                               "--axis-b", "x", "--j", j)
        assert code == 0
        docs[float(j)] = json.loads(out)
    for j, doc in docs.items():
        for key in ("e_a", "xi", "eta", "e_b", "trace_energy"):
            assert doc[key] / j == pytest.approx(docs[1.0][key], abs=1e-12)
        assert doc["theta_star"] == pytest.approx(docs[1.0]["theta_star"], abs=1e-12)
        assert doc["checks"]["profiles_consistent"] is True
    monkeypatch.setattr(protocol, "apply_feedback", lambda blocks, sigma_b, theta: blocks)
    code, _, err = run_cli(capsys, "teleport", "--sites", "8", "--axis-a", "y",
                           "--axis-b", "x", "--j", "1e-7")
    assert code == 1
    assert "bookkeeping" in err


def test_cool_csv_schema(capsys):
    code, out, _ = run_cli(capsys, "cool", "--sites", "6", "--axis-a", "y",
                           "--axis-b", "x", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["outcome", "minimum"]
    assert [r[0] for r in rows[1:]] == ["0", "1"]
    _, doc, _ = run_cli(capsys, "cool", "--sites", "6", "--axis-a", "y", "--axis-b", "x")
    assert sum(float(r[1]) for r in rows[1:]) == pytest.approx(
        json.loads(doc)["e_r_numeric"], abs=1e-12)


STAGES = ("ground", "post_measurement", "post_feedback")
# each command's flags, and the CSV table its JSON document says it should print
TABLE_FROM_DOCUMENT = {
    "ground": (["--sites", "9", "--bc", "open"],
               lambda doc: [list(r) for r in zip(range(9), doc["epsilon"], doc["t_expect"],
                                                 doc["eps_min"])]),
    "teleport": (["--sites", "8", "--axis-a", "1,1,0", "--axis-b", "z", "--theta", "0.3"],
                 lambda doc: [[n, *r] for n, r in
                              enumerate(zip(*(doc["profiles"][s] for s in STAGES)))]),
    "sweep": (["--sizes", "6,8", "--axis-a", "best"],
              lambda doc: [list(row.values()) for row in doc["rows"]]),
    "analytic": (["--n-max", "12", "--j", "2.5"],
                 lambda doc: [list(row.values()) for row in doc["rows"]]),
    "cool": (["--sites", "8", "--axis-a", "y", "--axis-b", "x"],
             lambda doc: [[mu, v] for mu, v in enumerate(doc["per_outcome"])]),
}


@pytest.mark.parametrize("command", sorted(TABLE_FROM_DOCUMENT))
def test_csv_and_json_carry_the_same_numbers(capsys, command):
    flags, table_from = TABLE_FROM_DOCUMENT[command]
    code_json, out_json, _ = run_cli(capsys, command, *flags)
    code_csv, out_csv, _ = run_cli(capsys, command, *flags, "--format", "csv")
    assert code_json == code_csv == 0
    doc = json.loads(out_json)
    header, *rows = csv.reader(io.StringIO(out_csv))
    if "rows" in doc:
        assert all(list(row) == header for row in doc["rows"])
    expected = table_from(doc)
    assert len(rows) == len(expected) > 0
    for row, values in zip(rows, expected):
        assert len(row) == len(values) == len(header)
        for cell, value in zip(row, values):
            # every float cell reads back as the very float the JSON holds
            assert (float(cell) if isinstance(value, float) else type(value)(cell)) == value


def test_only_the_report_writer_reads_the_output_flags():
    # the output decision lives in `_report`: no other function reads --format
    # or --out or writes to stdout, and only it and the config reader open files
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    readers, openers = set(), set()
    for func in (node for node in tree.body if isinstance(node, ast.FunctionDef)):
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute) and (
                    node.attr in ("fmt", "out") or
                    (node.attr == "stdout" and isinstance(node.value, ast.Name)
                     and node.value.id == "sys")):
                readers.add(func.name)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
                openers.add(func.name)
    assert readers == {"_report"}
    assert openers == {"_report", "_config_flags"}
    commands = {node.name for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")}
    assert commands == {f"cmd_{name}" for name in TABLE_FROM_DOCUMENT}


def test_restarts_knob_removed(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["cool", "--sites", "6", "--restarts", "4"])
    assert "--restarts" in capsys.readouterr().err
    cfg = tmp_path / "cool.cfg"
    cfg.write_text("restarts = 4\n")
    code, _, err = run_cli(capsys, "cool", "--config", str(cfg))
    assert code == 1 and "unknown key" in err


def test_byte_identical_reruns(capsys):
    args = ("teleport", "--sites", "8", "--axis-a", "y", "--axis-b", "x", "--seed", "0")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


@pytest.mark.parametrize("command", ["ground", "cool"])
def test_no_number_depends_on_the_seed(capsys, command):
    # --seed is accepted and echoed; the ground state is exact, and `cool`
    # does not pass it to the cooling search
    axes = ("--axis-a", "y") if command == "cool" else ()     # `ground` takes no axis
    docs = []
    for seed in ("0", "7"):
        code, out, _ = run_cli(capsys, command, "--sites", "8", *axes, "--seed", seed)
        assert code == 0
        doc = json.loads(out)
        assert doc["params"].pop("seed") == int(seed)
        docs.append(doc)
    assert docs[0] == docs[1]


def test_a_failed_residual_check_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(eigensolver, "RESIDUAL_BOUND", 1e-30)
    code, out, err = run_cli(capsys, "ground", "--sites", "8")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "misses H g = E0 g" in err and "Traceback" not in err


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sites = 8\naxis-a = y\naxis-b = x\n# comment line\n")
    code, out, _ = run_cli(capsys, "teleport", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["params"]["sites"] == 8

    code, out, _ = run_cli(capsys, "teleport", "--config", str(cfg), "--sites", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["sites"] == 6          # flag wins
    assert doc["params"]["axis_a"] == "y"       # config still supplies the rest


def test_unknown_config_key_fails(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("coupling = 2\n")
    code, _, err = run_cli(capsys, "teleport", "--config", str(cfg))
    assert code == 1
    assert "unknown key" in err


@pytest.mark.parametrize("command, settings", [
    ("ground", [("sites", "6"), ("bc", "open"), ("format", "csv")]),
    ("teleport", [("sites", "6"), ("axis_a", "y"), ("axis-b", "x"), ("theta", "0.5"),
                  ("j", "2")]),
    ("sweep", [("sizes", "6"), ("distances", "2,1"), ("axis-a", "y"), ("seed", "4")]),
    ("analytic", [("n_min", "2"), ("n-max", "6"), ("j", "0.5")]),
    ("cool", [("sites", "6"), ("axis-a", "y"), ("axis_b", "x"), ("seed", "3")]),
])
def test_config_file_matches_the_same_flags(tmp_path, capsys, command, settings):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in settings))
    flags = [arg for key, value in settings for arg in (f"--{key.replace('_', '-')}", value)]
    code, from_flags, _ = run_cli(capsys, command, *flags)
    assert code == 0
    assert run_cli(capsys, command, "--config", str(cfg)) == (0, from_flags, "")


@pytest.mark.parametrize("command, line, message", [
    ("ground", "theta = 0.5", "unknown key 'theta'"),     # another command's flag
    ("analytic", "n-ma = 3", "unknown key 'n_ma'"),       # no abbreviations
    ("ground", "config = other.cfg", "unknown key 'config'"),
    ("ground", "fmt = csv", "unknown key 'fmt'"),         # the flag is --format
])
def test_config_key_must_be_a_flag_of_the_command(tmp_path, capsys, command, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# comment\n{line}\n")
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 1 and out == ""
    assert f"bad.cfg:2: {message}" in err


@pytest.mark.parametrize("argv, config", [
    (("ground", "--sites", "6"), "format = xml"),
    (("ground", "--sites", "6"), "sites = six"),
    (("ground", "--sites", "6", "--form", "csv"), None),
])
def test_invalid_values_and_abbreviations_exit_like_argparse(tmp_path, capsys, argv, config):
    if config is not None:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config + "\n")
        argv += ("--config", str(cfg))
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("line, message", [
    ("sites = six", "argument --sites: invalid int value: 'six'"),
    ("format = xml", "argument --format: invalid choice: 'xml'"),
])
def test_invalid_config_value_names_its_line(tmp_path, capsys, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# comment\nbc = open\n{line}\n")
    with pytest.raises(SystemExit) as exc:
        main(["ground", "--config", str(cfg)])
    assert exc.value.code == 2
    assert f"qetsim ground: error: {cfg}:3: {message}" in capsys.readouterr().err
    # the same value as a flag is argparse's message alone
    flag, value = (part.strip() for part in line.split("="))
    with pytest.raises(SystemExit) as exc:
        main(["ground", f"--{flag}", value])
    assert exc.value.code == 2
    assert f"qetsim ground: error: {message}" in capsys.readouterr().err


def test_a_run_without_config_parses_once(monkeypatch, capsys):
    calls = []
    parse_known_args = cli._Parser.parse_known_args
    monkeypatch.setattr(cli._Parser, "parse_known_args",
                        lambda self, *a, **k: calls.append(self.prog) or
                        parse_known_args(self, *a, **k))
    assert run_cli(capsys, "analytic", "--n-max", "3")[0] == 0
    assert calls == ["qetsim", "qetsim analytic"]      # the command line, then its command


def test_the_command_line_parser_is_built_once_per_process():
    # a fresh interpreter: importing the CLI builds no parser, and two runs
    # build the one tree of parsers that build_parser makes
    code = textwrap.dedent("""
        import argparse, contextlib, io
        built = []
        init = argparse.ArgumentParser.__init__
        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)
        argparse.ArgumentParser.__init__ = counting
        from qetsim import cli
        print(len(built))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["analytic", "--n-max", "2"]) == 0
            after_one = len(built)
            assert cli.main(["analytic", "--n-max", "3"]) == 0
        print(after_one, len(built))
        cli.build_parser()
        print(len(built))
    """)
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    at_import, after_one, after_two, with_another = map(int, proc.stdout.split())
    assert at_import == 0
    assert after_one == after_two > 0
    assert with_another == 2 * after_one


def test_a_command_replaced_after_a_run_is_the_one_run(capsys, monkeypatch):
    assert run_cli(capsys, "analytic", "--n-max", "2")[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_cool", lambda args: seen.append(args.sites) or 7)
    assert run_cli(capsys, "cool", "--sites", "6") == (7, "", "")
    assert seen == [6]


def test_a_bad_config_line_names_its_line_after_the_parser_is_kept(tmp_path, capsys):
    assert run_cli(capsys, "ground", "--sites", "6")[0] == 0
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bc = open\nsites = six\n")
    with pytest.raises(SystemExit):
        main(["ground", "--config", str(cfg)])
    assert f"qetsim ground: error: {cfg}:2: argument --sites" in capsys.readouterr().err
    cfg.write_text("theta = 0.5\n")
    code, out, err = run_cli(capsys, "ground", "--config", str(cfg))
    assert (code, out) == (1, "") and f"{cfg}:1: unknown key 'theta'" in err


def test_config_accepts_a_negative_axis_triple(tmp_path, capsys):
    cfg = tmp_path / "axis.cfg"
    cfg.write_text("axis-a = -1,0,0\naxis-b = x\n")
    code, out, _ = run_cli(capsys, "teleport", "--sites", "6", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["params"]["axis_a_used"] == [-1.0, 0.0, 0.0]
    assert run_cli(capsys, "teleport", "--sites", "6", "--axis-a=-1,0,0") == (0, out, "")


def test_readme_lists_each_commands_flags(capsys):
    # the README's table row for a command names exactly the flags its --help lists
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    common = re.search(r"Every command also takes (.*?)\.\s", readme, flags=re.S).group(1)
    table = dict(re.findall(r"^\| `(\w+)` +\| (.*) \|$", readme, flags=re.M))
    assert sorted(table) == sorted(TABLE_FROM_DOCUMENT)
    slots = 0
    for command, listed in table.items():
        with pytest.raises(SystemExit):
            main([command, "--help"])
        options = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        assert set(re.findall(r"--[a-z][a-z-]*", listed + common)) | {"--help"} == options
        slots += len(options) - 1
    assert slots == 46


# the chain flags a command's computation does not read, and a value valid for each
UNREAD_FLAGS = {"ground": "site-a site-b axis-a axis-b", "sweep": "sites site-a site-b",
                "analytic": "sites bc site-a site-b axis-a axis-b seed"}
VALID = {"sites": "8", "bc": "open", "site-a": "0", "site-b": "1", "axis-a": "x", "axis-b": "x",
         "seed": "0"}


@pytest.mark.parametrize("command, flag", [(command, flag) for command, flags in
                                           UNREAD_FLAGS.items() for flag in flags.split()])
def test_a_flag_the_command_does_not_read_is_refused_before_any_solve(
        tmp_path, capsys, monkeypatch, command, flag):
    def fail(*args, **kwargs):
        raise SolverCalled

    monkeypatch.setattr(eigensolver, "ground_state", fail)
    value = VALID[flag]
    with pytest.raises(SystemExit) as exc:
        main([command, f"--{flag}", value])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"unrecognized arguments: --{flag}" in captured.err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag} = {value}\n")
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert (code, out) == (1, "") and "unknown key" in err


# what each command echoes in `params` beyond its parsed flags
COMPUTED_PARAMS = {"teleport": ["axes_from", "axis_a_used", "axis_b_used"],
                   "cool": ["axes_from", "axis_a_used", "axis_b_used"]}


@pytest.mark.parametrize("command", sorted(TABLE_FROM_DOCUMENT))
def test_params_echo_the_declared_flags_and_the_computed_values(capsys, command):
    flags, _ = TABLE_FROM_DOCUMENT[command]
    code, out, _ = run_cli(capsys, command, *flags)
    assert code == 0
    params = json.loads(out)["params"]
    declared = ["format" if dest == "fmt" else dest for dest in vars(cli._parse([command]))
                if dest not in ("out", "config")]
    assert list(params) == declared + COMPUTED_PARAMS.get(command, [])
    if command == "sweep":
        assert params["sizes"] == [6, 8]     # the parsed list, not the flag's text


def test_large_guard(capsys, monkeypatch):
    # sizes above the 20-site cap are rejected before any solve, with no flag to pass
    def fail(*args, **kwargs):
        raise SolverCalled

    monkeypatch.setattr(eigensolver, "ground_state", fail)
    code, out, err = run_cli(capsys, "ground", "--sites", "21")
    assert code == 1 and out == ""
    assert "out of range" in err
    with pytest.raises(SystemExit):
        main(["ground", "--sites", "18", "--large"])
    assert "--large" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("teleport", "--sites", "18", "--axis-a", "diag"), "axis must be x, y, z, best"),
    (("cool", "--sites", "8", "--axis-b", "diag"), "axis must be x, y, z, best"),
    (("sweep", "--sizes", "14,16", "--axis-a", "diag"), "axis must be x, y, z, best"),
    (("teleport", "--sites", "18", "--theta", "nan"), "theta must be finite, not nan"),
])
def test_a_bad_axis_or_theta_exits_1_before_any_solve(tmp_path, capsys, monkeypatch, argv,
                                                      message):
    def fail(*args, **kwargs):
        raise SolverCalled

    monkeypatch.setattr(eigensolver, "ground_state", fail)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "") and message in err
    # the same value from a --config file
    flag, value = argv[-2:]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag[2:]} = {value}\n")
    code, out, err = run_cli(capsys, *argv[:-2], "--config", str(cfg))
    assert (code, out) == (1, "") and message in err


def test_invalid_axis_rejected(capsys):
    code, _, err = run_cli(capsys, "teleport", "--axis-a", "diag")
    assert code == 1
    assert "axis" in err


@pytest.mark.parametrize("flag", ["--axis-a", "--axis-b"])
@pytest.mark.parametrize("axis", ["nan,0,0", "inf,1,0", "0,-inf,0"])
def test_non_finite_axis_rejected(capsys, flag, axis):
    # the later flag wins, so each case sets one axis to the bad triple
    code, out, err = run_cli(capsys, "teleport", "--sites", "8", "--axis-a", "y",
                             "--axis-b", "x", flag, axis)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "finite" in err and "Traceback" not in err


@pytest.mark.parametrize("n_sites", ["10", "12"])
def test_ground_calibrates_at_a_large_coupling(capsys, n_sites):
    # the residual bound and the energy checks are both relative to J
    code, out, _ = run_cli(capsys, "ground", "--sites", n_sites, "--j", "1e6")
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"]["calibrated"] is True
    assert doc["residual"] < 10 * 1e-10 * 1e6


def test_teleport_at_a_large_coupling_matches_unit_coupling(capsys):
    docs = {}
    for j in ("1", "1e6"):
        code, out, _ = run_cli(capsys, "teleport", "--sites", "12", "--j", j, "--axis-a", "y",
                               "--axis-b", "x", "--site-b", "3")
        assert code == 0
        docs[float(j)] = json.loads(out)
    assert docs[1e6]["e_b"] / 1e6 == pytest.approx(docs[1.0]["e_b"], rel=1e-10)


def test_out_into_a_missing_directory_fails_before_any_solve(tmp_path, capsys, monkeypatch):
    calls = []

    def fail(*args, **kwargs):
        calls.append(args)
        raise SolverCalled

    monkeypatch.setattr(eigensolver, "ground_state", fail)
    missing = tmp_path / "missing"
    with pytest.raises(SystemExit) as exc:
        main(["ground", "--sites", "8", "--out", str(missing / "x.json")])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert str(missing) in captured.err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"sites = 8\nout = {missing / 'x.json'}\n")
    with pytest.raises(SystemExit) as exc:
        main(["ground", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"{cfg}:2: argument --out" in captured.err and str(missing) in captured.err
    assert calls == [] and not missing.exists()


def test_out_naming_a_directory_fails_before_any_solve(tmp_path, capsys, monkeypatch):
    # so does an empty path, on the command line or as a config line `out =`,
    # which would otherwise write to stdout
    def fail(*args, **kwargs):
        raise SolverCalled

    monkeypatch.setattr(eigensolver, "ground_state", fail)
    config = tmp_path / "empty_out.cfg"
    config.write_text("out =\n")
    for flags, message in ((["--out", str(tmp_path)],
                            f"argument --out: is a directory: {str(tmp_path)!r}"),
                           (["--out", ""], "argument --out: empty path"),
                           (["--config", str(config)], f"{config}:1: argument --out: empty path")):
        with pytest.raises(SystemExit) as exc:
            main(["ground", "--sites", "18", *flags])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert message in captured.err


def test_out_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "ground", "--sites", "8", "--out", str(path))
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["params"]["command"] == "ground"
