"""The experiment scripts run end to end and exit 0."""
import importlib.util
import os
import subprocess
import sys

import pytest

from conftest import module_cli

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts")


@pytest.mark.parametrize("script, argv", [
    ("run_scan.py", ["--j", "4", "--steps", "400"]),
    ("boson_demo.py", [])])
def test_script_runs(script, argv):
    _, env = module_cli()
    proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, script),
                           *argv], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_run_scan_excited_state_is_usage_error():
    _, env = module_cli()
    script = os.path.join(SCRIPTS, "run_scan.py")
    proc = subprocess.run([sys.executable, script,
                           "--j", "4", "--state", "1"], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2
    assert "ground state" in proc.stderr


def test_dump_outputs_runner():
    # the runner of the byte-identity dump, on one success and one usage
    # error, in fresh interpreters
    spec = importlib.util.spec_from_file_location(
        "dump_outputs", os.path.join(SCRIPTS, "dump_outputs.py"))
    dump = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(dump)
    ok = dump.run(["bcs", "spectrum", "--levels", "0,1", "--gamma", "1",
                   "--n", "2"])
    assert ok == {"argv": ["bcs", "spectrum", "--levels", "0,1", "--gamma",
                           "1", "--n", "2"],
                  "exit": 0, "stderr": "",
                  "stdout": "index,energy,seniority,degenerate\n"
                            "0,0.3819660112501051,00,0\n1,1,11,0\n"
                            "2,2.6180339887498949,00,0\n"}
    bad = dump.run(["lmg", "spectrum", "--j", "2", "--gx", "nan", "--gy", "1"])
    assert bad["exit"] == 2 and bad["stdout"] == ""
    assert "lam must be finite" in bad["stderr"]
    assert len(dump.COMMANDS) == 144
