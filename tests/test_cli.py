import json
import subprocess
import sys


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
    a = run_cli("verify", "n1", "--seed", "7")
    b = run_cli("verify", "n1", "--seed", "7")
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
    proc = run_cli("verify", "eom", "--config", str(cfg))
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


def test_zero_hbar_is_a_usage_error():
    assert_usage_error(run_cli("verify", "gauge", "--hbar", "0"))


def test_malformed_weyl_index_is_a_usage_error():
    assert_usage_error(run_cli("verify", "weyl", "--expr", "p[a][1]"))
    assert_usage_error(run_cli("verify", "weyl", "--expr", "1/0*p"))


def test_oracle_kmax_below_two_is_a_usage_error():
    # k = 0..1 holds no recursion: the check would pass with nothing checked
    assert_usage_error(run_cli("oracle", "moments", "--family", "VI", "--kmax", "1"))
