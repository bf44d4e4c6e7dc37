import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cpverify import cli, families
from cpverify.checks import CheckRecord
from cpverify.cli import TASKS, main


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "cpverify.cli", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    return proc


def test_verify_weyl_pass_and_schema():
    proc = run_cli("verify", "weyl", "--N", "2")
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["schema"] == 1
    assert rep["status"] in ("pass", "resolved-with-correction")
    assert all(c["anchor"] for c in rep["checks"])
    assert "ok" in proc.stderr or "[pass" in proc.stderr or "[resolved" in proc.stderr


def test_usage_error_exit_code():
    proc = run_cli("verify", "pde", "--family", "II", "--hbar", "0")
    assert proc.returncode == 2
    proc = run_cli("verify", "pde", "--family", "II", "--mode", "symbolic", "--hbar", "1/2")
    assert proc.returncode == 2


def test_deterministic_reports():
    a = run_cli("verify", "radial", "--seed", "7")
    b = run_cli("verify", "radial", "--seed", "7")
    assert a.stdout == b.stdout  # byte-identical JSON with the same seed


def test_print_hamiltonian():
    proc = run_cli(
        "print", "hamiltonian", "--family", "V", "--kind", "cp", "--N", "2", "--m", "2",
        "--hbar", "1/2", "--params", "b=-1/3,c=-1/5",
    )
    assert proc.returncode == 0
    assert "A[1]" in proc.stdout and "C (multiplication)" in proc.stdout


def test_config_file(tmp_path):
    cfg = tmp_path / "task.cfg"
    cfg.write_text("N = 2\nseed = 9\n")
    proc = run_cli("verify", "radial", "--config", str(cfg))
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["task"]["N"] == 2


def test_verify_pde_symbolic_cli():
    proc = run_cli("verify", "pde", "--family", "II", "--N", "2", "--m", "1", "--hbar", "1", "--mode", "symbolic")
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["status"] in ("pass", "resolved-with-correction")


def assert_usage_error(proc):
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: ")


def test_doubly_resonant_vi_point_is_a_usage_error():
    # at b = -1, c = 0 (m = hbar = 1) the resonant relation reduces to 0 and pins no nu_1
    proc = run_cli(
        "verify", "pde", "--family", "VI", "--mode", "symbolic", "--N", "1", "--m", "1", "--hbar", "1", "--params", "b=-1,c=0"
    )
    assert_usage_error(proc)
    assert proc.stderr == "usage error: relation does not determine ('nu', 1) (resonant parameters): 0\n"


def test_family_without_a_weight_is_named_as_such():
    for kind in ("cp", "nagoya"):
        proc = run_cli("print", "hamiltonian", "--family", "I", "--kind", kind)
        assert_usage_error(proc)
        assert proc.stderr == "usage error: family 'I' has no beta-integral weight\n"


def test_zero_hbar_is_a_usage_error():
    assert_usage_error(run_cli("verify", "gauge", "--hbar", "0"))


def test_malformed_weyl_index_is_a_usage_error():
    assert_usage_error(run_cli("verify", "weyl", "--expr", "p[a][1]"))
    assert_usage_error(run_cli("verify", "weyl", "--expr", "1/0*p"))


def test_oracle_kmax_below_two_is_a_usage_error():
    # k = 0..1 holds no recursion: the check would pass with nothing checked
    assert_usage_error(run_cli("oracle", "moments", "--family", "VI", "--kmax", "1"))


def test_pde_numeric_without_a_default_point_is_a_usage_error():
    # III and IV have no built-in numeric point: t and params must both be given
    for family in ("III", "IV"):
        assert_usage_error(run_cli("verify", "pde", "--family", family, "--mode", "numeric", "--hbar", "1/2"))


def test_pde_numeric_keeps_the_given_params():
    # only the missing t is defaulted; b = 1/3 is outside the V domain
    assert_usage_error(run_cli("verify", "pde", "--family", "V", "--mode", "numeric", "--hbar", "1/2", "--params", "b=1/3"))


def test_pde_numeric_keeps_the_given_t():
    # only the missing params are defaulted; VI needs t > 1
    assert_usage_error(run_cli("verify", "pde", "--family", "VI", "--mode", "numeric", "--hbar", "1/2", "--t", "1/2"))


def test_pde_numeric_echoes_the_precision_used():
    proc = run_cli(
        "verify", "pde", "--family", "V", "--mode", "numeric", "--hbar", "1/2", "--t", "5/4", "--level", "2", "--prec", "192"
    )
    assert proc.returncode in (0, 1)
    rep = json.loads(proc.stdout)
    assert rep["environment"]["precision_bits"] == 128  # the numeric PDE path caps the precision at 128 bits
    assert rep["checks"][0]["name"].endswith("t=5/4")


def test_pde_echoes_the_parameters_it_used():
    # a = m hbar and the default c = -1/5 run alongside the given b
    proc = run_cli("verify", "pde", "--family", "V", "--N", "1", "--m", "1", "--hbar", "1", "--params", "b=-1/2")
    assert proc.returncode == 0
    task = json.loads(proc.stdout)["task"]
    assert task["params"] == {"a": "1", "b": "-1/2", "c": "-1/5"} and "t" not in task
    # numeric: the missing t, or the missing params, comes from the family's first numeric point
    common = ("verify", "pde", "--mode", "numeric", "--hbar", "1/2", "--level", "2")
    proc = run_cli(*common, "--family", "V", "--params", "b=-2/3,c=-1/2")
    task = json.loads(proc.stdout)["task"]
    assert task["params"] == {"a": "1", "b": "-2/3", "c": "-1/2"} and task["t"] == "3/2"
    proc = run_cli(*common, "--family", "VI", "--t", "5/2")
    task = json.loads(proc.stdout)["task"]
    assert task["params"] == {"a": "1", "b": "-3/2", "c": "-1/5", "d": "11/5"} and task["t"] == "5/2"


def test_weyl_matrix_expressions_print_their_entries():
    # a matrix value prints entry by entry, so two runs agree byte for byte
    for expr in ("[Tr(p*p), q]", "p"):
        first = run_cli("verify", "weyl", "--N", "2", "--expr", expr)
        assert first.returncode == 0
        assert first.stdout == run_cli("verify", "weyl", "--N", "2", "--expr", expr).stdout
        assert "object at" not in json.loads(first.stdout)["checks"][-1]["detail"]
    detail = json.loads(first.stdout)["checks"][-1]["detail"]
    assert detail == "[[(1)*p[1][1], (1)*p[1][2]], [(1)*p[2][1], (1)*p[2][2]]]"


def test_print_radial_without_its_parameters_is_a_usage_error():
    proc = run_cli("print", "hamiltonian", "--family", "VI", "--N", "2", "--kind", "radial")
    assert_usage_error(proc)
    assert proc.stderr.strip() == "usage error: missing parameters: th0, th1, tht, k2"


def test_radial_with_no_eigenvalues_is_a_usage_error():
    assert_usage_error(run_cli("verify", "radial", "--family", "II", "--N", "0"))


def test_pde_with_no_eigenvalues_is_a_usage_error():
    assert_usage_error(run_cli("verify", "pde", "--family", "II", "--N", "0"))


def test_table1_with_no_eigenvalues_is_a_usage_error():
    assert_usage_error(run_cli("verify", "table1", "--family", "II", "--N", "0"))


def test_table1_runs_the_hbar_it_was_given():
    # the ungauged rows hold at hbar = 1 only, so another hbar is not replaced by it
    proc = run_cli("verify", "table1", "--family", "IV", "--mode", "ungauged", "--hbar", "2")
    assert_usage_error(proc)
    assert proc.stderr == "usage error: the ungauged identification requires hbar = 1\n"
    # without --mode, another hbar runs the gauged rows alone, and the echo says so
    proc = run_cli("verify", "table1", "--family", "IV", "--hbar", "2", "--N", "2")
    rep = json.loads(proc.stdout)
    assert rep["task"]["modes"] == ["gauged"] and rep["task"]["hbar"] == {"gauged": ["2"]}
    assert [c["name"] for c in rep["checks"]] == ["parameter table IV gauged, hbar=2, N=2, m=2"]


def test_n1_with_no_integration_variables_is_a_usage_error():
    assert_usage_error(run_cli("verify", "n1", "--m", "0"))


def test_oracle_below_double_precision_is_a_usage_error():
    assert_usage_error(run_cli("oracle", "moments", "--family", "V", "--kmax", "3", "--prec", "0"))


def test_gauge_has_no_power_flag():
    # --a was accepted and never read: every power ran whatever it said
    proc = run_cli("verify", "gauge", "--a", "7", "--N", "2")
    assert proc.returncode == 2
    assert "unrecognized arguments: --a" in proc.stderr


def test_negative_level_is_a_usage_error():
    # was a ValueError traceback from the node list's 1 << level
    assert_usage_error(run_cli("verify", "pde", "--family", "V", "--mode", "numeric", "--hbar", "1/2", "--level", "-1"))


def test_level_zero_still_runs():
    proc = run_cli("verify", "pde", "--family", "V", "--mode", "numeric", "--hbar", "1/2", "--level", "0")
    assert proc.returncode in (0, 1)
    assert json.loads(proc.stdout)["schema"] == 1


def test_low_levels_report_a_real_grid_error_or_none():
    # level 1 skipped its level-0 coarse grid and printed "grid error 1.0"
    argv = ("verify", "pde", "--family", "V", "--mode", "numeric", "--level")
    (one,) = json.loads(run_cli(*argv, "1").stdout)["checks"]
    assert "grid error 0.08794;" in one["detail"]
    zero = run_cli(*argv, "0")
    (rec,) = json.loads(zero.stdout)["checks"]
    assert zero.returncode == 1 and not rec["ok"]
    assert rec["detail"] == "quadrature failed: level 0 has no coarser grid to estimate the error against"


def test_radial_with_no_trials_is_a_usage_error():
    # was an ok record over "(0 random points)"
    assert_usage_error(run_cli("verify", "radial", "--family", "II", "--N", "2", "--trials", "0"))


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "radial", "--family", "IV", "--N", "2", "--trials", "2"),
        ("oracle", "moments", "--family", "IV", "--kmax", "4", "--prec", "64"),
    ],
)
def test_negative_seed_is_a_usage_error(argv):
    # was run on the points of --seed 1 and echoed as seed -1
    assert_usage_error(run_cli(*argv, "--seed=-1"))


def test_params_cannot_set_t():
    # was run at the default t = 3/2 with t=5/4 dropped
    proc = run_cli(
        "verify", "pde", "--family", "V", "--mode", "numeric", "--hbar", "1/2", "--level", "1", "--params", "t=5/4"
    )
    assert_usage_error(proc)
    assert proc.stderr.strip() == "usage error: t is set by --t, not by --params"


def test_params_cannot_set_hbar_when_printing():
    proc = run_cli(
        "print", "hamiltonian", "--family", "V", "--kind", "cp", "--N", "2", "--m", "2",
        "--hbar", "1/2", "--params", "b=-1/3,c=-1/5,hbar=1/2",
    )
    assert_usage_error(proc)
    assert proc.stderr.strip() == "usage error: hbar is set by --hbar, not by --params"


def test_params_key_without_a_flag_is_a_usage_error():
    proc = run_cli("verify", "weyl", "--params", "kappa=1/2")
    assert_usage_error(proc)
    assert proc.stderr.strip() == "usage error: kappa is not a parameter of verify weyl"


def test_config_without_a_path_is_a_usage_error():
    # was an IndexError traceback
    assert_usage_error(run_cli("verify", "eom", "--config"))


def test_missing_config_file_is_a_usage_error():
    # was a FileNotFoundError traceback
    assert_usage_error(run_cli("verify", "eom", "--config", "/nonexistent/task.cfg"))



@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "weyl", "--N", "1", "--prec", "300", "--seed", "5"),
        ("verify", "zero-curvature", "--params", "b=1/3"),
        ("verify", "n1", "--params", "b=1/3"),
        ("verify", "pde", "--family", "V", "--mode", "numeric", "--hbar", "1/2", "--params", "a=5"),
        ("verify", "pde", "--family", "V", "--mode", "numeric", "--hbar", "1/2", "--controls"),
        ("verify", "pde", "--family", "V", "--mode", "symbolic", "--level", "2"),
        ("verify", "pde", "--family", "II", "--params", "b=-1/3"),
        ("verify", "pde", "--family", "V", "--params", "b=-1/3,b=-1/5"),
        ("print", "hamiltonian", "--family", "V", "--kind", "cp", "--kappa", "9", "--params", "b=-1/3,c=-1/5"),
        ("print", "hamiltonian", "--family", "V", "--kind", "cp", "--params", "b=-1/3,c=-1/5,th0=4"),
        ("print", "hamiltonian", "--family", "V", "--kind", "nagoya", "--m", "2", "--params", "a=1,b=-1/3,c=-1/5"),
        ("print", "hamiltonian", "--family", "V", "--seed", "1", "--params", "b=-1/3,c=-1/5"),
        ("print", "hamiltonian", "--family", "II", "--kind", "cp", "--params", "b=5"),
        ("print", "hamiltonian", "--family", "IV", "--kind", "cp", "--params", "b=-1/3,c=1"),
        ("print", "hamiltonian", "--family", "II", "--kind", "nagoya", "--params", "a=1,b=5"),
        ("print", "hamiltonian", "--family", "II_pre", "--kind", "radial", "--params", "th=1,th0=2"),
    ],
)
def test_what_a_task_does_not_read_is_a_usage_error(argv):
    # each of these exited 0 with the flag or key dropped
    assert_usage_error(run_cli(*argv))


def test_print_reads_each_key_of_the_family():
    for kind, family, params in (("nagoya", "II", "a=1"), ("radial", "II_pre", "th=1"), ("cp", "IV", "b=-1/3")):
        proc = run_cli("print", "hamiltonian", "--family", family, "--kind", kind, "--params", params)
        assert proc.returncode == 0 and "C (multiplication)" in proc.stdout, (kind, family)


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "gauge", "--N", "2", "--hbar", "-1/3"),
        ("verify", "pde", "--mode", "numeric", "--family", "V", "--hbar", "1/2", "--level", "0", "--t", "-5/4"),
    ],
)
def test_negative_rational_values_parse_like_the_equals_form(argv):
    # argparse took -1/3 for a flag: exit 2, "expected one argument"
    joined = run_cli(*argv[:-2], f"{argv[-2]}={argv[-1]}")
    spaced = run_cli(*argv)
    assert joined.returncode in (0, 1)
    assert (spaced.returncode, spaced.stdout) == (joined.returncode, joined.stdout)


def test_negative_looking_expressions_parse_like_the_equals_form():
    # argparse took -p for a flag: exit 2, "expected one argument"
    for expr in ("-p", "-Tr(p*q)"):
        joined = run_cli("verify", "weyl", "--N", "1", f"--expr={expr}")
        spaced = run_cli("verify", "weyl", "--N", "1", "--expr", expr)
        assert joined.returncode == 0
        assert (spaced.returncode, spaced.stdout) == (joined.returncode, joined.stdout)
    assert cli._attach_negative_values(["--N", "2", "--hbar", "-1/3"]) == ["--N", "2", "--hbar=-1/3"]
    # a switch never takes a value, and -h stays the help flag
    assert cli._attach_negative_values(["--json", "-p", "--expr", "-h"]) == ["--json", "-p", "--expr", "-h"]
    assert_usage_error(run_cli("verify", "weyl", "--json", "-p"))


def test_suite_block_time_is_split_over_its_records(monkeypatch):
    # every record without a time of its own used to carry the whole block's time
    clock = iter([5.0, 6.0015])
    monkeypatch.setattr(cli.time, "perf_counter", lambda: next(clock))
    recs = [CheckRecord(f"c{i}", "anchor", True) for i in range(4)]
    recs[1].ms = 100  # timed by its runner
    out = cli._timed("stub", lambda: recs)
    assert [r.ms for r in out] == [300, 100, 300, 301]
    assert [r.name for r in out] == ["[stub] c0", "[stub] c1", "[stub] c2", "[stub] c3"]


def test_parser_errors_are_one_usage_line():
    assert_usage_error(run_cli("verify", "weyl", "--N", "two"))
    assert_usage_error(run_cli("verify", "table1", "--mode", "sideways"))


def test_exact_tasks_echo_no_precision():
    proc = run_cli("verify", "pde", "--family", "II", "--N", "1", "--m", "1", "--mode", "symbolic")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["environment"]["precision_bits"] is None

# every int flag that sizes a run is capped, and each also reaches below its floor
CAPPED = {
    "N": st.sampled_from((0, 1, 2, 2)),
    "m": st.sampled_from((0, 1, 2, 2)),
    "level": st.sampled_from((-1, 0, 1, 2)),
    "kmax": st.sampled_from((1, 2, 3, 4)),
    "trials": st.sampled_from((0, 1, 2)),
    "prec": st.sampled_from((52, 64, 96)),
}
RATIONAL = st.sampled_from(("0", "1", "2", "1/2", "-1/3", "-1/5", "5/4", "1/0", "x"))
TEXT = RATIONAL | st.sampled_from(families.NAMES)


@st.composite
def task_argv(draw):
    """An argv for one row of the task table (the suite is too long to fuzz)."""
    (verb, name), task = draw(st.sampled_from([row for row in TASKS.items() if row[0][0] != "suite"]))
    argv = [verb, name]
    specs = dict(task.argspecs)
    mode = None
    if task.by:
        mode = draw(st.sampled_from(specs[task.by]["choices"]))
        argv += [f"--{task.by}", mode]
    for flag, spec in task.argspecs:
        if flag == task.by:
            continue
        read = flag not in task.only or mode in task.only[flag]
        # a flag the mode does not read is a usage error, so it comes rarely
        if not (flag in CAPPED and read or spec.get("required") or draw(st.integers(0, 3 if read else 7)) == 0):
            continue
        if spec.get("action") == "store_true":
            argv.append(f"--{flag}")
        elif flag == "params":
            keys = st.sampled_from(task.keys + ("t", "zz"))
            pairs = draw(st.lists(st.tuples(keys, RATIONAL), max_size=3))
            argv += ["--params", ",".join(f"{k}={v}" for k, v in pairs)]
        else:
            if "choices" in spec:
                value = draw(st.sampled_from(spec["choices"]))
            elif spec.get("type") is int:
                value = str(draw(CAPPED.get(flag, st.integers(-1, 9))))
            else:
                value = draw(TEXT)
            # now and then a value or a flag that argparse itself rejects
            argv += [f"--{flag}", draw(st.sampled_from((value,) * 8 + ("x", "-x")))]
    if draw(st.integers(0, 9)) == 0:
        argv.append("--bogus")
    return argv, task


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(task_argv())
# H_V is divided by its prefactor t, which vanishes before any domain check runs
@example((["verify", "pde", "--family", "V", "--mode", "numeric", "--t", "0"], TASKS["verify", "pde"]))
def test_fuzz_task_table(case):
    # every argv ends in a report (exit 0 or 1), printed output, or one usage line
    argv, task = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error: "), (argv, err.getvalue())
    elif task.report:
        assert code in (0, 1), argv
        assert json.loads(out.getvalue())["schema"] == 1
    else:
        assert code == 0 and out.getvalue(), argv
